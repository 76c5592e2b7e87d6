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

Every random_meta_hrl and unified_hrl entry, here and in the eval, wrapped
and slip tables, was recorded once more when K-means came to run on the
histogram of distinct arrival states (weighted Lloyd with k-means++ drawing
rows with probability w * d^2) instead of on every memory entry: the fit
now equals the per-entry fit on the arrivals grouped by state in first-seen
order, not in time order, so the seeding draws pick other points and every
later draw follows. Entries whose content does not depend on the fit kept
their values: every flat_q and random_walk file, and the random_meta_hrl
seed-1 and seed-2 meta tables, which hold only initial values and so depend
on the subgoal count alone, and it did not change for those seeds.

The plain table's memory.jsonl entries came last, recorded from the code
before the trainer step returned its Transition and before the memory file
was written in byte blocks; they cover the unwrapped memory that `train`
writes, random walks included.
"""

import hashlib

import pytest
import yaml

from subgoal_hrl.cli import main
from subgoal_hrl.trainer import MODES

SEEDS = (0, 1, 2)
ARTIFACTS = (
    "metrics.csv", "memory.jsonl", "controller_q.csv", "meta_q.csv",
    "flat_q.csv", "subgoals.json",
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
    "flat_q_seed0/memory.jsonl":
        "136205872c0f2781cb0a0d2eaf26334a242cb7ffdcac3de6bbced40bb9a6fda8",
    "flat_q_seed0/metrics.csv":
        "87adf971ff705aa96dc72e3d499c9401cc06f8cda1c6bd0f20a86ec8b2135756",
    "flat_q_seed1/flat_q.csv":
        "ed4d6d0ba4a7ca259a4444f5bd64805a252c2c7d39dcc84c1d671b52ea097f1c",
    "flat_q_seed1/memory.jsonl":
        "5ee5cfdae922d5868f0393cceec7bab69da658494616eef8e714fe28b8158c8e",
    "flat_q_seed1/metrics.csv":
        "62d1f8590f553c48c5b43d8a9bb20218a672a4e88b775cfd43e938a63f5637be",
    "flat_q_seed2/flat_q.csv":
        "c9abc729547c892d6327d5eb4b3dd66cf99c5bc7a1e554818c9f97d3fb8ffe9b",
    "flat_q_seed2/memory.jsonl":
        "1f0e81088ea7405f0a196649be9556817e2921dfeb69edbdedae20221600f8bf",
    "flat_q_seed2/metrics.csv":
        "e8c579ec69d9886e4daab01753dd4ac85c032ca49b5416366843eed22637b024",
    "random_meta_hrl_seed0/controller_q.csv":
        "f0e6096720441ab24d4efb865661aa7493703d632a7d445defded3a4af3633e3",
    "random_meta_hrl_seed0/memory.jsonl":
        "f1975673c5c39d75d6b8cc0665ae30d977d02a6bb1e9d087a37c76bec06ee0d4",
    "random_meta_hrl_seed0/meta_q.csv":
        "232feabe11ec51dd4f8ece768a5b265f513c961a5632b5b31fb88b85e739d495",
    "random_meta_hrl_seed0/metrics.csv":
        "413215111ffc8c68109cf1e82e41180444bc171209b07e39d82a28872b3d319d",
    "random_meta_hrl_seed0/subgoals.json":
        "421668b86e09da3f5acebef2ff5ee61f7f832093fc50f5493dcd494625d6d8a4",
    "random_meta_hrl_seed1/controller_q.csv":
        "c23d7d6fb1c7d20a05c9dd28496463a80543699a6cc4c080b9996ccfb013896b",
    "random_meta_hrl_seed1/memory.jsonl":
        "3a559a87a1837848fd7e2ae8698177953146c46240bed1d5f74834389d7e8b0a",
    "random_meta_hrl_seed1/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed1/metrics.csv":
        "e39dc0db16572792bf784c52123d61faa3bbe5baaeec47221ae3a4ebb7178ed4",
    "random_meta_hrl_seed1/subgoals.json":
        "3aee4d88ce5ed6e85f8f638dd5729e61cebc0197b380e12cc229670f1b1aaec9",
    "random_meta_hrl_seed2/controller_q.csv":
        "d0bf2beffe275172857acf3fdabb7943fd719df634e9bb77bc74cfc2cfe7e15c",
    "random_meta_hrl_seed2/memory.jsonl":
        "4c96771de41b5650f09c700a1f6571dfc68accbd6b80551d7aaf4fd5d5c4b081",
    "random_meta_hrl_seed2/meta_q.csv":
        "fb4fecc06903a3f1cdc3db8bed5f68b3af2f13d3d35bc776f0daa5f5963897c6",
    "random_meta_hrl_seed2/metrics.csv":
        "ae3640f438674698d8c20c577ec5591c69abc7560bf22357769e667fb46bd05b",
    "random_meta_hrl_seed2/subgoals.json":
        "a317b9fbabae8a6b07d5501aaf35fb2e98adba53675046f477353864fb63321f",
    "random_walk_seed0/memory.jsonl":
        "bc9da75a5cd255f8a28b3e48c2c27294c025984c095baa5c0890c4268d987df2",
    "random_walk_seed0/metrics.csv":
        "71b9d229bf3a70686bf4d8e851133586c73310bb7d24d1b0bf668c3c5f92d997",
    "random_walk_seed1/memory.jsonl":
        "0389552a46319fa3d1b82c2f2f45980cd5823e93ab6eb8d803a8ebd348a93d18",
    "random_walk_seed1/metrics.csv":
        "d71bad9eb67099d84a915e1409b748f169fa041505228e79f145ecfde8f23111",
    "random_walk_seed2/memory.jsonl":
        "3b46953a77d8aab3a2b4f025d510a05a3040429a0c78c350e01a34d4a47c86ae",
    "random_walk_seed2/metrics.csv":
        "24c571d4ac88ee8ef40f93a51335bdc6c57737e16a90373b7e224c134bffeda0",
    "unified_hrl_seed0/controller_q.csv":
        "2ddf800f81102b0fceaf5d04de50f082233e4f5d0fa786c202ac57fb8d9934a9",
    "unified_hrl_seed0/memory.jsonl":
        "dcf0e3cd1de7505220b94d3206207debe8d6f6758bbe06e4ebb6b9755ea11b5e",
    "unified_hrl_seed0/meta_q.csv":
        "9deca5d2d44d5ebe76df131043f3f189a0187f7e3534dbcf97bd0fe56a7927e3",
    "unified_hrl_seed0/metrics.csv":
        "3ca142f700d980c4395937a27df4af8693f44e30ab98f8c3b368eebeedc02306",
    "unified_hrl_seed0/subgoals.json":
        "d516bc30cc5d882b5785d12692f2c6a1db40239e0e720cd44e36ba9a9d563ad1",
    "unified_hrl_seed1/controller_q.csv":
        "31c7e1606df24aea8cb562af8f8a73b46ae11cc2ec80a7aafb4383e61dfee42e",
    "unified_hrl_seed1/memory.jsonl":
        "fc3ff0a031ebdd4f601772036770995e182dbe2c904a5220f189a58318026971",
    "unified_hrl_seed1/meta_q.csv":
        "a3e69f43d3d46b52e802b8e49710f43e2aa1b1bb742fe43698b8a84008fd18b3",
    "unified_hrl_seed1/metrics.csv":
        "b1acd1b558e600ef44e7a453a5992ee7f76ff61d701004e2593771f9acc1db39",
    "unified_hrl_seed1/subgoals.json":
        "e2156f7f6c6ae4e71b7c4b880bc9cb37d9132689622699a7b7f14d79e5700732",
    "unified_hrl_seed2/controller_q.csv":
        "759aaa36dd05a77ceef3c6568ca79c8ee5b7332cade046e20a5756b1c7736a6f",
    "unified_hrl_seed2/memory.jsonl":
        "20143182517ff3d44a1110ae6bc0bec9bcd6197b55d06c7863b42002d7042bed",
    "unified_hrl_seed2/meta_q.csv":
        "413645bcff28032577c0f36a3a5e06823a08c142daef817d0470d4b266e147ad",
    "unified_hrl_seed2/metrics.csv":
        "cd7a77bf148318e1768893f5da11b6ef9bf27d282f93886a697f6f490d323936",
    "unified_hrl_seed2/subgoals.json":
        "e30fb772cb0252b60cfb44bd28c94b97fc1f537128720a384a3e621bfaf9266a",
}


# stdout of `eval --episodes 3` on the runs above, recorded from the code
# before the three table classes shared one implementation; re-recorded,
# except flat_q_seed1, with the float replay draw; the unified_hrl entries
# again with the weighted K-means (see the module docstring).
EVAL_STDOUT_SHA256 = {
    "flat_q_seed0":
        "e50c7fd08736cc594e4f331833b591cdd1f65f55e16e2a7f1be4548bd227c354",
    "flat_q_seed1":
        "a3ecb88b84ba095cce0c92d8e3f1f7f2a675bed946391cc4693b6203c28ca6f8",
    "flat_q_seed2":
        "5778a1f973c0dd833d5b38b3db08fff0bf743a7f8b35202aac4d602e95815c32",
    "unified_hrl_seed0":
        "46e2c11114beb3959e141ce07c322adc75d0da9acda5f94dcd7d0bbef13f3e22",
    "unified_hrl_seed1":
        "315bab990a0587af23c2018c2c00b9c4a958c12d5f88f256fe3903f2b0aa008e",
    "unified_hrl_seed2":
        "45206a8cdafde5d11e20d80c298d8f62259b140d27743077a42c35cea101c876",
}


# `compare --runs` over the three seeds of each mode above, and offline
# `discover --memory <mode>_seed0/memory.jsonl --k 4`. Recorded from the code
# before discover, compare and eval came to read run directories through
# one reader.
READER_SHA256 = {
    "flat_q/coverage.csv":
        "af637d5c8fc802da77411e64497289d2ffee13b9c575a65a04f8cd87775fa768",
    "flat_q/discover_subgoals.json":
        "dfd6446f70ec2b858e935b66fadee0af0ca460484b14343830e40b7e661a8d51",
    "flat_q/return.csv":
        "fa543ebc576c6a44851139db30ea56ed1f06e649d515ad42ffe3c20f63b823da",
    "random_meta_hrl/coverage.csv":
        "6f1875d4ec613503f48418600e4416265d670da1d052cbac9d7296a762b7e7a1",
    "random_meta_hrl/discover_subgoals.json":
        "8799e2597dc9ff2561940348e39f116d53889ab4834a77df9bf81fd1b4e6e8a8",
    "random_meta_hrl/return.csv":
        "f95168a079b85361cfb22ecb68b4d3dd1bb32b46545c2b54b6871c08881c1435",
    "random_walk/coverage.csv":
        "e24b7b0a1b56831f202a8cf94a924ec2943adeac9ba24f1d7724ef3f7e14a58e",
    "random_walk/discover_subgoals.json":
        "0061bc757416ffbe76a14100b9b2dec5cdb7ece2209ce0b82a3310f95f30a314",
    "random_walk/return.csv":
        "82e7862d1375d6aa03af4e9afc64ad4273bf60adbe3dbae877e06b5c7aff616d",
    "unified_hrl/coverage.csv":
        "6f95743363fdf8bb5fb6cdb37772e3c3ffbc45b68cccacd8dd481e41ee9ebcbf",
    "unified_hrl/discover_subgoals.json":
        "d97ea8308cf13cdbebaf09cf6f6a41d1b0472a3a44647e9e88591418b1438399",
    "unified_hrl/return.csv":
        "090d9c219bbb64d76826eb48d3a7dac89483928306a8a7c7dec86beab75a4bf9",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reader_hashes(tmp_path, mode):
    """Hashes of what compare and offline discover write from the runs of
    `mode` under tmp_path."""
    cmp_dir = tmp_path / "cmp"
    runs = [str(tmp_path / f"{mode}_seed{seed}") for seed in SEEDS]
    assert main(["compare", "--runs", *runs, "--out-dir", str(cmp_dir)]) == 0
    discovered = tmp_path / "discovered.json"
    assert main([
        "discover", "--memory", str(tmp_path / f"{mode}_seed0" / "memory.jsonl"),
        "--k", "4", "--out", str(discovered),
    ]) == 0
    return {
        f"{mode}/coverage.csv": _sha256(cmp_dir / "coverage.csv"),
        f"{mode}/return.csv": _sha256(cmp_dir / "return.csv"),
        f"{mode}/discover_subgoals.json": _sha256(discovered),
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
    want_reader = {k: v for k, v in READER_SHA256.items() if k.startswith(f"{mode}/")}
    assert _reader_hashes(tmp_path, mode) == want_reader


# Recorded from the code before states and transitions became tuples and
# before sampling indexed the ring with one vectorised modulo; all
# re-recorded with the float replay draw, and the unified_hrl entries again
# with the weighted K-means (see the module docstring). The random_walk
# entries were added later, recorded from the code before the warm-up walk
# became one loop over the move table; a random walk's warm-up spans several
# WARMUP_CHUNK blocks and its ring wraps ten times.
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
    "random_walk_seed0/memory.jsonl":
        "503a4bad221cb33d68c2d0ac77dc3c893651542885a945127139b802ab51dd3f",
    "random_walk_seed0/metrics.csv":
        "71b9d229bf3a70686bf4d8e851133586c73310bb7d24d1b0bf668c3c5f92d997",
    "random_walk_seed1/memory.jsonl":
        "2dbfd6b1c4db3e70ee67cc0f6177a2164785d567ed5332f7409a13eb05347dd2",
    "random_walk_seed1/metrics.csv":
        "d71bad9eb67099d84a915e1409b748f169fa041505228e79f145ecfde8f23111",
    "unified_hrl_seed0/controller_q.csv":
        "91e2f260978efae16a9eebedce0dd41c2cced2f8eb56727bd55c4c6187b1d2e9",
    "unified_hrl_seed0/memory.jsonl":
        "cb3ef235eae6938e5db7683ea85f89c126da764986a42efdd70441cccbb682bf",
    "unified_hrl_seed0/meta_q.csv":
        "d915e5271a90d366d6f798c9fe971180e21ea43a0e5d61698e58b3f39583fbf1",
    "unified_hrl_seed0/metrics.csv":
        "a876e07a64764b21fb24321588106ec0f94d0551a1eac9929ece6cee45291376",
    "unified_hrl_seed0/subgoals.json":
        "1821c122455a5dab0ff140f2f1bb9dde2274d7348e41b628b630e9a3e1557784",
    "unified_hrl_seed1/controller_q.csv":
        "51d9a0c6a6aa4a903932e5449c0261b39ca8a3485b588a49f6a30ae7570cbdc9",
    "unified_hrl_seed1/memory.jsonl":
        "13fc8b3964dfebe690ac9fcc869dee176bf88b2d62db3b1b7c85a29eab4ee3c1",
    "unified_hrl_seed1/meta_q.csv":
        "fb11c3b342b19db0a0aff61745df0a8b393f7ff0ef1c52f74eba7cc0193f6377",
    "unified_hrl_seed1/metrics.csv":
        "87cb9a6137b6c603a72a965cbae22a831c721aaa765102c7c361e75b40f3bc51",
    "unified_hrl_seed1/subgoals.json":
        "7c1e525e1ad6ad37dc86675c993bbd5cc675f9ce71a51b8511a5cd7f77780a7c",
}


@pytest.mark.slow
@pytest.mark.parametrize("mode", ("flat_q", "random_walk", "unified_hrl"))
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
        for name in ARTIFACTS:
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
# draw, and the unified_hrl entries with the weighted K-means (see the module
# docstring). The random_walk entries were added later, recorded from the
# code before the warm-up walk became one loop over the move table.
SLIP_GOLDEN_SHA256 = {
    "flat_q_seed0/flat_q.csv":
        "d6f710c8a4e1474be54fc5fec2f32fb5ad61fcaee075627222e16bda7c11f9e5",
    "flat_q_seed0/memory.jsonl":
        "2200a2edc325a40589e2c0d4884a13bba85a36e9a3e423f62ca1bf80a282d2a6",
    "flat_q_seed0/metrics.csv":
        "e5714606406f731070acf914d9ef1274f9881fc71fd7b957bb012993cc61d247",
    "random_walk_seed0/memory.jsonl":
        "c95bdbf7ce803d95a02c9b93c687fbc9d9b26c6a58f630cb99b490dbaa4afbd0",
    "random_walk_seed0/metrics.csv":
        "1d396c4acf70e8307b775a7b7d9392a1bfa27741b51d13edec1eaf2451677b01",
    "unified_hrl_seed0/controller_q.csv":
        "1de8755389e7490516b95ba97d48fa299b5aa49b36fae991217c01d66c29bcb3",
    "unified_hrl_seed0/memory.jsonl":
        "1e83b5dd446cc10a617d77d13fcef42f6538a758fae0874006c8c1c54d0528c1",
    "unified_hrl_seed0/meta_q.csv":
        "8cbbd7f6bcdba641b1d711b59206c752bb07a54d7be20769d296c33a679b5562",
    "unified_hrl_seed0/metrics.csv":
        "9894bbb718fbfee615584db952ef92e87ff775f4508c40d6d7adbc7e27993ea1",
    "unified_hrl_seed0/subgoals.json":
        "e54a384bdc8074215f39fa0f32e0dd28f6a02f91acbdd8a64038938cfe0d840a",
}


@pytest.mark.slow
@pytest.mark.parametrize("mode", ("flat_q", "random_walk", "unified_hrl"))
def test_slip_artifacts_match_golden_hashes(tmp_path, mode):
    assert main([
        "train", "--mode", mode, "--seed", "0", "--steps", "20000",
        "--warmup-steps", "2000", "--discovery-period", "4000",
        "--slip-prob", "0.1", "--out", str(tmp_path),
    ]) == 0
    got = {}
    for name in ARTIFACTS:
        path = tmp_path / f"{mode}_seed0" / name
        if path.exists():
            got[f"{mode}_seed0/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    want = {
        k: v for k, v in SLIP_GOLDEN_SHA256.items() if k.startswith(f"{mode}_seed")
    }
    assert got == want
