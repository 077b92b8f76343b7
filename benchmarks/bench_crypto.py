"""Micro-benchmarks of the cryptographic substrate.

Engineering numbers for this implementation (the *paper's* crypto cost is
the Table-2 r_ed constant, charged by the timing model): throughput of each
cipher-suite backend, the raw AES block transform, and one oblivious
shuffle compare-exchange (a one-comparator reshuffle step).
"""

from __future__ import annotations

import pytest

from repro.crypto.aes import AES
from repro.crypto.rng import SecureRandom
from repro.crypto.sha256 import sha256
from repro.crypto.suite import BACKENDS, CipherSuite


@pytest.mark.parametrize("backend", BACKENDS)
def test_suite_roundtrip_throughput(benchmark, backend):
    suite = CipherSuite(b"bench", backend=backend, rng=SecureRandom(1))
    payload = bytes(1024)

    def roundtrip():
        return suite.decrypt_page(suite.encrypt_page(payload))

    assert benchmark(roundtrip) == payload


def test_aes_block_transform(benchmark):
    cipher = AES(bytes(16))
    block = bytes(16)
    benchmark(lambda: cipher.encrypt_block(block))


def test_pure_sha256_throughput(benchmark):
    data = bytes(4096)
    benchmark(lambda: sha256(data))


def test_rng_randrange(benchmark):
    rng = SecureRandom(2)
    benchmark(lambda: rng.randrange(10**6))


def test_compare_exchange(benchmark, report):
    """One oblivious-shuffle comparator as a reshuffle step of one unit:
    2 frames read, opened, compared by PRF tag, resealed and written."""
    from repro.baselines import make_records
    from repro.core.database import PirDatabase
    from repro.shuffle.oblivious import network_size

    def fresh_epoch():
        db = PirDatabase.create(
            make_records(16, 64), cache_capacity=4, block_size=4,
            page_capacity=64, trace_enabled=False, seed=3,
        )
        return (db.begin_reshuffle(batch_size=1),), {}

    benchmark.pedantic(lambda driver: driver.step(), setup=fresh_epoch,
                       rounds=50)
    per_op = benchmark.stats.stats.mean
    for n in (1024, 65536):
        comparators = network_size(n)
        report.note(
            f"oblivious setup estimate for n = {n}: {comparators} comparators "
            f"~= {comparators * per_op:.1f} s at one comparator per batch"
        )
