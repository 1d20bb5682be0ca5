"""Byte-for-byte pins of the clt outputs.

Each case runs ``run_clt`` with an output directory and compares two sha256
digests: record.json minus ``timings`` (serialized as ``run_clt`` writes it)
and series.csv.  The digests were taken before the membership, counts and CSV
code was consolidated, so any change of output, down to the last float digit,
fails here.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from haltonclt.cli import ExperimentConfig, run_clt

BIG = 2**70 + 1

# (primes, y, N, seed, record digest, series.csv digest)
GOLDEN = [
    (
        (2,), (F(1, 3),), 4096, 42,
        "41b326dcf59ca5076ae01dcd659a1f5050a37e43080453a2c4242233a9053ac2",
        "59cbd7d54d238fbf863b2122ab4cd04b3e9c7a52b68767d436b707429e296f86",
    ),
    (
        (2, 3), (F(1, 5), F(2, 5)), 4096, 7,
        "5a68bcce2ee72f96f12a7a840c190a7bf152826cebc24d3c5b31ff25e4a290c4",
        "646f4f576c3db627767731f44a1e739cf5ac6117232bf51dcf0fb2a8fc518f23",
    ),
    (
        (2, 3, 5), (F(1, 3), F(2, 5), F(3, 7)), 2048, 3,
        "75697e4449349c8dcde1b57127a657509b9085a811314afb9538ad838e152234",
        "ab08f8b77c007fa1cfa3736f72e6463113760d7c5dbb26410eada81933a80a0f",
    ),
    # a corner whose denominator is near 2^70
    (
        (2,), (F(BIG // 3, BIG),), 256, 1,
        "d74e2f039612fc57612832ec5424c97f09892af33f43cd091dc91bb5aeb134b0",
        "a7dd3919c13318ca21cbfbc608e75dab34525cba7c0d7bd68809bfdbd604b4aa",
    ),
    # y = 1/2: the identically-zero series
    (
        (2,), (F(1, 2),), 64, 1,
        "1e6f8978c8e4a28c281f9cbf22b269e3b7a20461d669640d851ab9ce0dbc73ac",
        "d105cfce8b56226171a75a331cbfb78a9c6acd28c14f159ed9d6de60b32a12a1",
    ),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "primes,y,n,seed,record_digest,series_digest",
    GOLDEN,
    ids=[f"{'x'.join(map(str, g[0]))}-N{g[2]}-seed{g[3]}" for g in GOLDEN],
)
def test_clt_outputs_match_golden(
    tmp_path, primes, y, n, seed, record_digest, series_digest
):
    run_clt(ExperimentConfig(primes=primes, y=y, n=n, seed=seed, out=tmp_path))
    record = json.loads((tmp_path / "record.json").read_text())
    record.pop("timings")
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert sha256(text.encode()) == record_digest
    assert sha256((tmp_path / "series.csv").read_bytes()) == series_digest
    if record["window"]["applicable"]:
        assert record["window"]["kappa3"] == record["condition"]["kappa3"]
