"""Golden artifacts: same-seed runs keep writing byte-identical files.

The SHA-256 hashes below were recorded with numpy 2.4.6 (Python 3.11) from
the code before K-means moved its distance work to distinct cells. A
change meant to preserve training semantics must keep them; a change that
alters rng consumption or arithmetic order must say so and re-record them.
Another numpy version may round some sums differently and so change them.
"""

import hashlib

import pytest

from subgoal_hrl.cli import main
from subgoal_hrl.trainer import MODES

SEEDS = (0, 1, 2)
ARTIFACTS = (
    "metrics.csv", "controller_q.csv", "meta_q.csv", "flat_q.csv",
    "subgoals.json",
)

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


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_artifacts_match_golden_hashes(tmp_path, mode):
    got = {}
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
    want = {k: v for k, v in GOLDEN_SHA256.items() if k.startswith(f"{mode}_seed")}
    assert got == want
