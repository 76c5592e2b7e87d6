"""Golden artifacts: same-seed runs keep writing byte-identical files.

The SHA-256 hashes below were recorded with numpy 2.4.6 (Python 3.11) from
the code before K-means moved its distance work to distinct cells. A
change meant to preserve training semantics must keep them; a change that
alters rng consumption or arithmetic order must say so and re-record them.
Another numpy version may round some sums differently and so change them.

Every flat_q, random_meta_hrl and unified_hrl entry, here and in the eval,
wrapped and slip tables, was recorded again when replay minibatches came to
be drawn as floor(u * size) from one rng.random(n) call instead of
rng.integers(0, size, size=n): the replay draws are a new stream, and every
later draw and update follows them. Entries that no replay draw reaches kept
their old values: all random_walk files, which draw no replay sample, the
random_meta_hrl meta tables, which never learn, and one eval stdout.
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
        "1770783ce6965a1fec1012a2cf02cf2081383260028ae20274a7394b0d5311b3",
    "flat_q_seed0/metrics.csv":
        "87adf971ff705aa96dc72e3d499c9401cc06f8cda1c6bd0f20a86ec8b2135756",
    "flat_q_seed1/flat_q.csv":
        "ed4d6d0ba4a7ca259a4444f5bd64805a252c2c7d39dcc84c1d671b52ea097f1c",
    "flat_q_seed1/metrics.csv":
        "62d1f8590f553c48c5b43d8a9bb20218a672a4e88b775cfd43e938a63f5637be",
    "flat_q_seed2/flat_q.csv":
        "c9abc729547c892d6327d5eb4b3dd66cf99c5bc7a1e554818c9f97d3fb8ffe9b",
    "flat_q_seed2/metrics.csv":
        "e8c579ec69d9886e4daab01753dd4ac85c032ca49b5416366843eed22637b024",
    "random_meta_hrl_seed0/controller_q.csv":
        "dd00d067fe3f965b3f6f8423b32f2f1a0d0dfc55f6d2cfe8e74474319bf83566",
    "random_meta_hrl_seed0/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed0/metrics.csv":
        "80db38ebe8193d6c8dc9feac8100e7a21cba6d9357ac7b7302474ccb841148c7",
    "random_meta_hrl_seed0/subgoals.json":
        "f6517cbb3ddc7102297033d38f2922ee65f93a8092851ffc9ceeac1df86cc7da",
    "random_meta_hrl_seed1/controller_q.csv":
        "e0595233d9aa7bb01a6b7fdc0ce23ea0b85ce3131909e7d966a02be40f8366b4",
    "random_meta_hrl_seed1/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed1/metrics.csv":
        "ffbc2363a3c0cb43ab869c7f4ecde0372662b4d0be46c74f997155665716e187",
    "random_meta_hrl_seed1/subgoals.json":
        "343e8f9104b5b00489893cb0facf76ddd7e88b0e1239eb7aeb9946803893e956",
    "random_meta_hrl_seed2/controller_q.csv":
        "11669535e4e98a4c187962ba6bbfd048da5423591acd7d68aa4a2bcb6b05e34b",
    "random_meta_hrl_seed2/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed2/metrics.csv":
        "fb08062451768ae2dfd5bac4e49546110415949179ab61b3298d5fc9bc2bb529",
    "random_meta_hrl_seed2/subgoals.json":
        "bfb378dfd3c7468310d8572a714555a366f78b06d9a041584f6b23ff302cc2a9",
    "random_walk_seed0/metrics.csv":
        "71b9d229bf3a70686bf4d8e851133586c73310bb7d24d1b0bf668c3c5f92d997",
    "random_walk_seed1/metrics.csv":
        "d71bad9eb67099d84a915e1409b748f169fa041505228e79f145ecfde8f23111",
    "random_walk_seed2/metrics.csv":
        "24c571d4ac88ee8ef40f93a51335bdc6c57737e16a90373b7e224c134bffeda0",
    "unified_hrl_seed0/controller_q.csv":
        "4aa1ea71b453febdb748f80f842a8ae0718b823d1a0dc2c0cd79b38b0444cf72",
    "unified_hrl_seed0/meta_q.csv":
        "74653c8b64935d532216f174e166a752c0f520b56368ed0125de18d5e24b8a92",
    "unified_hrl_seed0/metrics.csv":
        "476bbe7c9e322da062e679f9888824587d827331864087db3be28049e0519d28",
    "unified_hrl_seed0/subgoals.json":
        "cd0ef3b97426c6c21e430e8437026ed2263b34a5384fe17fedcf3845661e0d7a",
    "unified_hrl_seed1/controller_q.csv":
        "819399e3b748fa940c9185367d6a291136bf61552ad55ca20253ce9045e1abe8",
    "unified_hrl_seed1/meta_q.csv":
        "e9c537e2691ae4147dbece0a30d46db1a7ce52a68387cf9026e4daeb47b14e50",
    "unified_hrl_seed1/metrics.csv":
        "484efa1a968b0831be7b9f74f8e2ac6c6f2de2a2b205d8e78f7c1d0e8a444650",
    "unified_hrl_seed1/subgoals.json":
        "eade6fead031e2a356f952e8395c56a064122a99b2166868d0b32f4d8a58a8da",
    "unified_hrl_seed2/controller_q.csv":
        "a580090b43894e2a0e22770abe38ea647c448b04e90b942a4c72b22846af6066",
    "unified_hrl_seed2/meta_q.csv":
        "10fd93abe8a97bba509b96ae45a739e02ffaca4ceba96e13a140ec43752d13d6",
    "unified_hrl_seed2/metrics.csv":
        "b221c41bb7efec691271718cfd59be16e04cb96865808f9a5f19d0b207023e88",
    "unified_hrl_seed2/subgoals.json":
        "e2f6aa07316d898562ca8143edc074d0bf66f418ecdcbb863de2a7a287966822",
}


# stdout of `eval --episodes 3` on the runs above, recorded from the code
# before the three table classes shared one implementation; re-recorded,
# except flat_q_seed1, with the float replay draw (see the module docstring).
EVAL_STDOUT_SHA256 = {
    "flat_q_seed0":
        "e50c7fd08736cc594e4f331833b591cdd1f65f55e16e2a7f1be4548bd227c354",
    "flat_q_seed1":
        "a3ecb88b84ba095cce0c92d8e3f1f7f2a675bed946391cc4693b6203c28ca6f8",
    "flat_q_seed2":
        "5778a1f973c0dd833d5b38b3db08fff0bf743a7f8b35202aac4d602e95815c32",
    "unified_hrl_seed0":
        "03ba14b05a8f29a1c72f93833762e2913e14c6a631610578481940a2f389852d",
    "unified_hrl_seed1":
        "40af96ae2a5b9fc7e1a212ab27532d57e8d89b26a4c15592e12be4929be88e59",
    "unified_hrl_seed2":
        "932d401bde4c8dce25ba1a4839d5051c9d8a1256fe816ab7ad1491407cf274e8",
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
# before sampling indexed the ring with one vectorised modulo; all
# re-recorded with the float replay draw (see the module docstring).
WRAPPED_GOLDEN_SHA256 = {
    "flat_q_seed0/flat_q.csv":
        "ec9a0935150bc2b715acffd06ce24945b476c552a5dad6fc9f8c497abc99c688",
    "flat_q_seed0/memory.jsonl":
        "ccff3d93a1f50756756b7fe303abb57343f74e0edee09c522e7a2d7f1f5b4949",
    "flat_q_seed0/metrics.csv":
        "102ae5766f0bb340ea81c3b9927252c20592aad51cf9247a1ac23e362637037c",
    "flat_q_seed1/flat_q.csv":
        "47669d21a77487cd423d07ef752a23befce1b6f46ae6eace20337cbcd7df6d63",
    "flat_q_seed1/memory.jsonl":
        "170406adac29e46f2364311a8903967f93359315d055804b1b4e9dbb94b1e11b",
    "flat_q_seed1/metrics.csv":
        "62d1f8590f553c48c5b43d8a9bb20218a672a4e88b775cfd43e938a63f5637be",
    "unified_hrl_seed0/controller_q.csv":
        "420857c7ec8d48e5e438de70c83b9d21d3d5e115c5e91bebbae61f3dd338843f",
    "unified_hrl_seed0/memory.jsonl":
        "6acff994d7de99cc2d20439381bf170051d487a8058125a7c2109bb4453c2b44",
    "unified_hrl_seed0/meta_q.csv":
        "0b73cafa944a12f4aaff4485e022e3ce26a8a9e8ee48201eb38d0b8e7a0d0986",
    "unified_hrl_seed0/metrics.csv":
        "50c21eb09403b1f1a31788fbf0e45d9635d156336e1c0c963d69691b34e49502",
    "unified_hrl_seed0/subgoals.json":
        "20c146b4eeae22f449ac592a7ef769f50e47756df717ae5a06dd8c46545eb925",
    "unified_hrl_seed1/controller_q.csv":
        "adcf7a8517cee36061868054a5aa7312edce343a7c5f07a1b43535d7f39af4af",
    "unified_hrl_seed1/memory.jsonl":
        "438f01cca90947b9703536725d9f642edd8dca06afed0a5c4cdf6e4994484cc7",
    "unified_hrl_seed1/meta_q.csv":
        "c226e1c6704ff1475bc1b1190116a51083cca20062dc2b09524e9761623a2246",
    "unified_hrl_seed1/metrics.csv":
        "4cbf97183582d7527b5e3c3c6e12e5d9160600dc4c45097d261e2780c415e603",
    "unified_hrl_seed1/subgoals.json":
        "2d1d3190a4eaea46bccc9792898035542a7b41ad252db6c513abb7e58bb860c8",
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
# between the actions. All entries were recorded again with the float replay
# draw (see the module docstring).
SLIP_GOLDEN_SHA256 = {
    "flat_q_seed0/flat_q.csv":
        "d6f710c8a4e1474be54fc5fec2f32fb5ad61fcaee075627222e16bda7c11f9e5",
    "flat_q_seed0/memory.jsonl":
        "2200a2edc325a40589e2c0d4884a13bba85a36e9a3e423f62ca1bf80a282d2a6",
    "flat_q_seed0/metrics.csv":
        "e5714606406f731070acf914d9ef1274f9881fc71fd7b957bb012993cc61d247",
    "unified_hrl_seed0/controller_q.csv":
        "e31342c820bfc6efa8e89e6f02ff3307da2292d9c46bf18cec050cfef821d2d4",
    "unified_hrl_seed0/memory.jsonl":
        "883de3881fb18254398e8cbd67f3e9ee28297a776c5600bca71bc38bcefe1449",
    "unified_hrl_seed0/meta_q.csv":
        "9c3228f9b1ba33179c392674a1304f6acdd749c55ec671e40c3ae116f0177168",
    "unified_hrl_seed0/metrics.csv":
        "a1eeff9d7af5c870ea9a678d80473284acee2c1484d07a21ef964f4bf9f0975e",
    "unified_hrl_seed0/subgoals.json":
        "42eebaa3effc5f248571096690f8c7f69a5f6605bf0a6e67551168d765f844fe",
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
