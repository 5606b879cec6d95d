"""The front half's bytes are pinned on scenes 5000-5007 and 6000-6007.

``data/front_half_5000_5007_6000_6007.json`` holds, per scene, the sha256 of
the synthesized line mask (``np.packbits``) and of the codec's heatmap and
location-map values. Calibration reads the mask and placement reads the
codec, so a faster rasterizer or encoder must reproduce them bit for bit.

Regenerate it only with a change that means to move these outputs, and say so:

    PYTHONPATH=src python tests/test_front_half_pin.py
"""
import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from courtpose.posemaps import encode_heatmaps, encode_location_maps
from courtpose.synth import synth_scene

PINNED = Path(__file__).resolve().parent / "data" / "front_half_5000_5007_6000_6007.json"
SEEDS = list(chain(range(5000, 5008), range(6000, 6008)))


def front_half_digests(seed: int) -> dict:
    b = synth_scene(seed)
    heat = encode_heatmaps(b.pose2d)
    loc = encode_location_maps(b.pose_root, heat)
    return {name: hashlib.sha256(data).hexdigest() for name, data in (
        ("line_mask", np.packbits(b.line_mask.pixels).tobytes()),
        ("heatmaps", heat.values.tobytes()),
        ("location_maps", loc.values.tobytes()))}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_file_covers_the_scenes(pinned):
    assert sorted(pinned) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_front_half_bytes_match_pinned(pinned, seed):
    assert front_half_digests(seed) == pinned[str(seed)]


if __name__ == "__main__":
    PINNED.write_text("{\n" + ",\n".join(
        f"{json.dumps(str(s))}: {json.dumps(front_half_digests(s), sort_keys=True)}"
        for s in SEEDS) + "\n}\n")
