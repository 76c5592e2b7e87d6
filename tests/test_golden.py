"""Golden artifacts: same-seed runs keep writing byte-identical files.

The SHA-256 hashes below were recorded with numpy 2.4.6 (Python 3.11) from
the code before K-means moved its distance work to distinct cells. A
change meant to preserve training semantics must keep them; a change that
alters rng consumption or arithmetic order must say so and re-record them.
Another numpy version may round some sums differently and so change them.
"""

import hashlib

import pytest
import yaml

from subgoal_hrl.cli import main
from subgoal_hrl.trainer import MODES

SEEDS = (0, 1, 2)
ARTIFACTS = (
    "metrics.csv", "controller_q.csv", "meta_q.csv", "flat_q.csv",
    "subgoals.json",
)
# Capacities small enough that all three memories wrap, none a divisor of
# the step counts, so sampling and snapshots run with the ring head
# anywhere but zero.
WRAPPED_CAPACITIES = {
    "memory_capacity": 1900,
    "controller_memory_capacity": 1700,
    "meta_memory_capacity": 300,
}

GOLDEN_SHA256 = {
    "flat_q_seed0/flat_q.csv":
        "d7635045775cd911afa13b28cb527ff931de9b4aff60662203da0e996e43eb2f",
    "flat_q_seed0/metrics.csv":
        "878efdd430851abc2dda0037040c1151e5a3ff42fd2636290b91462823ae5af3",
    "flat_q_seed1/flat_q.csv":
        "2ac522e0050bbdcc387428eca3a8d64f91a5be48f6658b34deac653eb1e65d85",
    "flat_q_seed1/metrics.csv":
        "aae0efba9234817b28e27ed55324e56d45d846178a2201cd3ddf5cfba4a07ebb",
    "flat_q_seed2/flat_q.csv":
        "4e88bf19eea7038266e2c76dd28d2f63f16950d667f3adf64a7d4d9090da84ef",
    "flat_q_seed2/metrics.csv":
        "6b788fd402e1e79a758cd7db013a30625b8578c893459c8533c8a55d7bd3be9d",
    "random_meta_hrl_seed0/controller_q.csv":
        "432e6759410a63d11c5b088ec580e7d2ea41ad0409da3e7c3251412c8dbd30a6",
    "random_meta_hrl_seed0/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed0/metrics.csv":
        "08b707cb6e6f6c4d0af33a9a6f5d1df3b17832d0314fca7c723de8772998b161",
    "random_meta_hrl_seed0/subgoals.json":
        "34eb9fc7410e91e39f3d46c3889096ca3c735f8d8d675fde8313877a9ef1b098",
    "random_meta_hrl_seed1/controller_q.csv":
        "81c4b774b222be70f8fba64a91aef5cd629bed81fae4706d159c7a1474379021",
    "random_meta_hrl_seed1/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed1/metrics.csv":
        "f91a7f0d2d04a192ab5de623c7b4e5dfa8a5133de19ead6c17ee6d57bacc005f",
    "random_meta_hrl_seed1/subgoals.json":
        "c9672e2a23112db4abd40bb3223cfa3b30c367a9d28ccd94315e5d94944711b5",
    "random_meta_hrl_seed2/controller_q.csv":
        "b84127b28b065fc4621daa3e2cf40f4720b4701fee1491ed2d767554c89a722b",
    "random_meta_hrl_seed2/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed2/metrics.csv":
        "6f40645819e7ba3cf33ae2f6822c51833aff6331de3b7af94d10453cf79c9e7d",
    "random_meta_hrl_seed2/subgoals.json":
        "011db38216a088d9bb3fb737682fb9118ca3fbc6c6e61f70a1e497be03d0e61b",
    "random_walk_seed0/metrics.csv":
        "71b9d229bf3a70686bf4d8e851133586c73310bb7d24d1b0bf668c3c5f92d997",
    "random_walk_seed1/metrics.csv":
        "d71bad9eb67099d84a915e1409b748f169fa041505228e79f145ecfde8f23111",
    "random_walk_seed2/metrics.csv":
        "24c571d4ac88ee8ef40f93a51335bdc6c57737e16a90373b7e224c134bffeda0",
    "unified_hrl_seed0/controller_q.csv":
        "1064e36b3a8ef5ba66058d95dccc5f9ae99e765d0ab946d184b9439f06fed89d",
    "unified_hrl_seed0/meta_q.csv":
        "13ff2e29724425101f7f94bb1f30dab4a53784dd18e64ad2d81cd471d974b67b",
    "unified_hrl_seed0/metrics.csv":
        "e45d8b6c0de3a214df477498c74f85462d75fe63febdf089a25d86af1029fe88",
    "unified_hrl_seed0/subgoals.json":
        "820da399701a3dc68e58b793f08b819f825febd4c96a65a8e1cf65269d965096",
    "unified_hrl_seed1/controller_q.csv":
        "b1ff3d40bad99eadd41f3bcf9b377a0e3cd2c7c45b58594b18878564fe46e7e3",
    "unified_hrl_seed1/meta_q.csv":
        "344920487fa51f87228ac7afc98619041ad9388675497bab6261e843c7f143fc",
    "unified_hrl_seed1/metrics.csv":
        "ec399ae9a8c577f95a10a85f4db86ae9098740852511c111c3b183b2f393f6bf",
    "unified_hrl_seed1/subgoals.json":
        "2eac932d95bb4e66268e6324d9446c0d4e5683c05026747a26f0d8e43f0293b8",
    "unified_hrl_seed2/controller_q.csv":
        "cd7220d189c6694bbfd60d031e9e840adb3db4132f2e7af56698e3d2fe883353",
    "unified_hrl_seed2/meta_q.csv":
        "9f630d733af173e596b4fea724355242a64c02d538392a07938fb4c24f744bfd",
    "unified_hrl_seed2/metrics.csv":
        "356f1368f56f53b4fc3dc86f6c66186170e2f3f774d421c4710afbc37a1e6a02",
    "unified_hrl_seed2/subgoals.json":
        "f0ce9144dae2732222059e9cdcdf357ab903f1d90dc69f3e20606bc6ab05e527",
}


# stdout of `eval --episodes 3` on the runs above, recorded from the code
# before the three table classes shared one implementation.
EVAL_STDOUT_SHA256 = {
    "flat_q_seed0":
        "79097979b3a7a75db86ff4ac30f89d285b09127801505254115c4f62cf13be60",
    "flat_q_seed1":
        "a3ecb88b84ba095cce0c92d8e3f1f7f2a675bed946391cc4693b6203c28ca6f8",
    "flat_q_seed2":
        "42a7c2ea237f94ddfeeb21e3c0617369a84f3fe3eed7c34d09d6d02f527620e7",
    "unified_hrl_seed0":
        "e0e7a16276ecf38069b665657d622fea9203d6e1cdf3b5ddd0e770c2d6816aca",
    "unified_hrl_seed1":
        "806edbd0d87ad5540d6e416b1f5986319e0b28000c842013a3b8a1efccc45e00",
    "unified_hrl_seed2":
        "dfa6d7b7bfc9dde348dc03f719e88e0a0d5da435c3c856cce025b752f42fb747",
}


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_artifacts_match_golden_hashes(tmp_path, capsys, mode):
    got = {}
    got_eval = {}
    for seed in SEEDS:
        assert main([
            "train", "--mode", mode, "--seed", str(seed),
            "--steps", "20000", "--warmup-steps", "2000",
            "--discovery-period", "4000", "--out", str(tmp_path),
        ]) == 0
        run_dir = tmp_path / f"{mode}_seed{seed}"
        for name in ARTIFACTS:
            path = run_dir / name
            if path.exists():
                key = f"{mode}_seed{seed}/{name}"
                got[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        if mode in ("flat_q", "unified_hrl"):
            capsys.readouterr()
            assert main(["eval", "--run", str(run_dir), "--episodes", "3"]) == 0
            stdout = capsys.readouterr().out
            got_eval[f"{mode}_seed{seed}"] = hashlib.sha256(stdout.encode()).hexdigest()
    want = {k: v for k, v in GOLDEN_SHA256.items() if k.startswith(f"{mode}_seed")}
    assert got == want
    want_eval = {
        k: v for k, v in EVAL_STDOUT_SHA256.items() if k.startswith(f"{mode}_seed")
    }
    assert got_eval == want_eval


# Recorded from the code before states and transitions became tuples and
# before sampling indexed the ring with one vectorised modulo.
WRAPPED_GOLDEN_SHA256 = {
    "flat_q_seed0/flat_q.csv":
        "a0cdcde917231a5929e88f89f5d21fdcbc9fdd0cd9a7b1ca1576f3eb66222db0",
    "flat_q_seed0/memory.jsonl":
        "a4dd77b5891376e45e1654adcc158fc8bd0592d6ba1fa9bc8020d139429bcec4",
    "flat_q_seed0/metrics.csv":
        "878efdd430851abc2dda0037040c1151e5a3ff42fd2636290b91462823ae5af3",
    "flat_q_seed1/flat_q.csv":
        "d797d9e97a6124d878a225bd82aadf78406500e89eb1f2edfc29f25145d6b679",
    "flat_q_seed1/memory.jsonl":
        "d90d6d7c674f5b69deaea00fd242de394bec5ace731924eedddaf34de3bc21d2",
    "flat_q_seed1/metrics.csv":
        "93e8226f710f1a0bbe967def7d75d5f61d17844454867bcbf5041c61be19ba56",
    "unified_hrl_seed0/controller_q.csv":
        "5497b3aef8318111b688354c456480e720274ed8dea19236ff05dc4909c87ca1",
    "unified_hrl_seed0/memory.jsonl":
        "1ee0722d47a4646e593c0e6bd1f73d52ddad7f2958f3ecc0773eea8e587e64e5",
    "unified_hrl_seed0/meta_q.csv":
        "59ed6a774468a08550755b09e5bafade1a2390f48ab77933a67ad06aadb9eda6",
    "unified_hrl_seed0/metrics.csv":
        "43db14dece71d655314f4188b5bd4afae5d046b1da41da7f4fa8505d79875505",
    "unified_hrl_seed0/subgoals.json":
        "de05c22d056905fa678a6970749473cf8fbcf8096221a0ae1955d002f41e0f8b",
    "unified_hrl_seed1/controller_q.csv":
        "305dbdb0c73371ec9838cf3cf966f048c82220bdb0479ffacf21a7e00d65bb7e",
    "unified_hrl_seed1/memory.jsonl":
        "e2d261139534227a7f70ec66d97f9090c45aeb73169e1c5714e51f13a3d34f5c",
    "unified_hrl_seed1/meta_q.csv":
        "79583676307ab4dbc4962c11940f68a29bbe667c4519e5734259abfc06b57a53",
    "unified_hrl_seed1/metrics.csv":
        "344f4480f653c8d46024f7de3f8f2bdd5d12f8a3de883f838edd85a252177ff0",
    "unified_hrl_seed1/subgoals.json":
        "f998c6ec9dd5c7ea39e529592dd27e9b7e7e6e3bd6e46d56616a502a0a95f70e",
}


@pytest.mark.slow
@pytest.mark.parametrize("mode", ("flat_q", "unified_hrl"))
def test_wrapped_memory_artifacts_match_golden_hashes(tmp_path, mode):
    got = {}
    for seed in (0, 1):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "mode": mode, "seed": seed, "total_steps": 20000,
            "warmup_steps": 2000, "discovery_period": 4000,
            **WRAPPED_CAPACITIES,
        }))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        run_dir = tmp_path / f"{mode}_seed{seed}"
        for name in ARTIFACTS + ("memory.jsonl",):
            path = run_dir / name
            if path.exists():
                key = f"{mode}_seed{seed}/{name}"
                got[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    want = {
        k: v for k, v in WRAPPED_GOLDEN_SHA256.items()
        if k.startswith(f"{mode}_seed")
    }
    assert got == want


# Recorded from the code before the move rule was compiled to tables over
# state ids, which moved the slip draw (rng.random(), then rng.integers(4)
# only on a slip) into the id step. The unified_hrl entries were recorded
# again when warm-up actions came to be drawn in one block per stretch:
# with slip the env's draws now follow the block's instead of falling
# between the actions. flat_q has no warm-up, so its entries are the old ones.
SLIP_GOLDEN_SHA256 = {
    "flat_q_seed0/flat_q.csv":
        "b6683ca3c2197e0b86e38af0e2bbc683c01bb119c2afb891951cefd3ebba6097",
    "flat_q_seed0/memory.jsonl":
        "00046d2e38add955c64d7441cb406c67079f1bbd959a6fb5ab7cad1d16cc9294",
    "flat_q_seed0/metrics.csv":
        "888f7002898fc064527b7740134bd3c2858e47ccc13dcf713b7ee882c4539d4f",
    "unified_hrl_seed0/controller_q.csv":
        "c3700cbe235a33dbe982bb9b8c07c3eafe51020b86cbb6ec9908cd4da9c8327d",
    "unified_hrl_seed0/memory.jsonl":
        "cce454ea96a9e637daecd4c9e3235857d588a709194de8aa55fad88eedefd883",
    "unified_hrl_seed0/meta_q.csv":
        "811ff09e91f22865bcf21818d714109a5c6d4d757488d52d68fd5f4c9bf5bc37",
    "unified_hrl_seed0/metrics.csv":
        "dca8a66b185aeb2864b14f39b58afa87b32a7a1580889b0a1d0d4dab12f38e3e",
    "unified_hrl_seed0/subgoals.json":
        "497c8b5145add64ab58070b559e9f65fba16357bcedc015c7388be50093fbfa6",
}


@pytest.mark.slow
@pytest.mark.parametrize("mode", ("flat_q", "unified_hrl"))
def test_slip_artifacts_match_golden_hashes(tmp_path, mode):
    assert main([
        "train", "--mode", mode, "--seed", "0", "--steps", "20000",
        "--warmup-steps", "2000", "--discovery-period", "4000",
        "--slip-prob", "0.1", "--out", str(tmp_path),
    ]) == 0
    got = {}
    for name in ARTIFACTS + ("memory.jsonl",):
        path = tmp_path / f"{mode}_seed0" / name
        if path.exists():
            got[f"{mode}_seed0/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    want = {
        k: v for k, v in SLIP_GOLDEN_SHA256.items() if k.startswith(f"{mode}_seed")
    }
    assert got == want
