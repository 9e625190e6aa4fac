"""Bit-for-bit pin of the simulator.

`graphnav collect --episodes 1 --seed 0 --jobs 1` is expert-driven, so no
BLAS call touches it, and its three JSONL buffers hold the features,
adjacency and action label of every step of three episodes. The digests
below were recorded from the scalar numpy-geometry simulator before the
pure-Python polyline and the single per-step projection replaced it; any
later engine (a vectorized one included) must reproduce them, or report the
disagreement instead of re-recording them.
"""

import hashlib

from graphnav.cli import main

GOLDEN_SHA256 = {
    "forward.jsonl": "e5654cb5cdb40b55f3355d52f8bf54844c9b303e555ca3e2e2a87b73512cbab5",
    "turn_left.jsonl": "911f488e86e308918f7760b2611ef9949462d37ded7a542f7760ada108913a38",
    "turn_right.jsonl": "f37188a48c5b9cd3b92f237c98c8669c1e5c59253e7bf37a6a70beb87a32c5a7",
}


def test_collect_digest_is_pinned(tmp_path):
    out = tmp_path / "data"
    assert main(["collect", "--out", str(out), "--episodes", "1", "--seed", "0",
                 "--jobs", "1"]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
