"""Byte-for-byte pins of the clt outputs and the verify reports.

Each clt case runs ``run_clt`` with an output directory and compares two
sha256 digests: record.json minus ``timings`` (serialized as ``run_clt``
writes it) and series.csv.  The digests were taken before the membership,
counts and CSV code was consolidated, so any change of output, down to the
last float digit, fails here.

Each verify case compares the sha256 of the ``verify_<suite>.txt`` report
that ``run_verify`` writes.  Those digests were taken before the point
sampler and the CRT combination were consolidated; a report line holds every
case's inputs and results, so a change of draw order shows here too.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from haltonclt.cli import ExperimentConfig, run_clt, run_verify

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


# (suite, seed, verify_<suite>.txt digest)
VERIFY_GOLDEN = [
    ("fourier-cells", 1, "25fa58eaae2c3504b038a7e6f042dedaf35986dbb6bbaa207646461c759ad498"),
    ("orthogonality", 1, "352c35a092ae827dfcd4cffb7c6d11c841d2e53af0301eb3612f59e1ec21aa81"),
    ("fast-vs-naive", 1, "79cd073055ecbd8f5a6002f54ee2c1989474c45f2b843a645e566f3e6506f137"),
    ("halton", 1, "10b22217df70da34a6c617c7889b0307ab3fc62974168468f206514357c33e70"),
    ("roundtrip", 1, "d9229edb090c39da4608d18ec1b78af6b72106064f62240a5762b33a46b4fcff"),
    ("fourier-cells", 2, "d4569b6be1611a01f7485a7b43c41a62ff548150d571954823ee8ad79be14edf"),
    ("orthogonality", 2, "587b59d5b985b24e637fca95868eb41a0ecc8c4f8271e15999245ba298716eea"),
    ("fast-vs-naive", 2, "f7c6118424e75fe6cd963f48266f67e0d811cdcd53b0bfb68c081db31f8020d4"),
    ("halton", 2, "10b22217df70da34a6c617c7889b0307ab3fc62974168468f206514357c33e70"),
    ("roundtrip", 2, "d9229edb090c39da4608d18ec1b78af6b72106064f62240a5762b33a46b4fcff"),
]


@pytest.mark.parametrize(
    "suite,seed,digest", VERIFY_GOLDEN, ids=[f"{g[0]}-seed{g[1]}" for g in VERIFY_GOLDEN]
)
def test_verify_report_matches_golden(tmp_path, capsys, suite, seed, digest):
    assert run_verify(suite, seed, tmp_path) == 0
    assert sha256((tmp_path / f"verify_{suite}.txt").read_bytes()) == digest
