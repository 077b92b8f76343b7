"""Micro-benchmarks of the cryptographic substrate.

Engineering numbers for this implementation (the *paper's* crypto cost is
the Table-2 r_ed constant, charged by the timing model): throughput of each
cipher-suite backend, the raw AES block transform, and the oblivious
shuffle's compare-exchange.
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
    """One oblivious-shuffle comparator: 2 unseals + 2 fresh seals."""
    from repro.shuffle.oblivious import ObliviousShuffler, network_size
    from repro.storage.page import Page

    suite = CipherSuite(b"bench", backend="shake", rng=SecureRandom(3))
    shuffler = ObliviousShuffler(suite, SecureRandom(4), 64)
    frame_a = shuffler.seal_tagged(SecureRandom(5).token(16), Page(0, bytes(64)))
    frame_b = shuffler.seal_tagged(SecureRandom(6).token(16), Page(1, bytes(64)))

    def compare_exchange():
        tag_a, page_a = shuffler.unseal_tagged(frame_a)
        tag_b, page_b = shuffler.unseal_tagged(frame_b)
        if tag_a > tag_b:
            page_a, page_b = page_b, page_a
            tag_a, tag_b = tag_b, tag_a
        return (shuffler.seal_tagged(tag_a, page_a),
                shuffler.seal_tagged(tag_b, page_b))

    benchmark(compare_exchange)
    per_op = benchmark.stats.stats.mean
    for n in (1024, 65536):
        comparators = network_size(n)
        report.note(
            f"oblivious setup estimate for n = {n}: {comparators} comparators "
            f"~= {comparators * per_op:.1f} s at this machine's crypto speed"
        )
