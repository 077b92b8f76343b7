"""Table 2 — system specifications used throughout the evaluation.

Prints the constants every other bench consumes, and measures the *actual*
throughput of this repo's software crypto backends for context (the paper's
r_ed = 10 MB/s is the IBM 4764's engine, charged via the timing model, not
our Python speed — see DESIGN.md §3).
"""

from __future__ import annotations

from repro.crypto.rng import SecureRandom
from repro.crypto.suite import CipherSuite
from repro.hardware.specs import IBM_4764


def test_table2_constants(report, benchmark):
    spec = IBM_4764
    benchmark(lambda: spec.ingest_time(10**6))
    report.line("Table 2: system specifications (IBM 4764 deployment)")
    report.table(
        ["parameter", "value"],
        [
            ["secure hardware cache", f"{spec.secure_memory // 10**6} MB"],
            ["disk seek time t_s", f"{spec.disk.seek_time * 1e3:.0f} ms"],
            ["disk read/write r_d", f"{spec.disk.read_bandwidth / 1e6:.0f} MB/s"],
            ["link bandwidth r_b", f"{spec.link_bandwidth / 1e6:.0f} MB/s"],
            ["encryption/decryption r_ed", f"{spec.crypto_throughput / 1e6:.0f} MB/s"],
        ],
    )


def test_software_crypto_throughput(report, benchmark):
    """Throughput of the repo's own page encryption (shake backend)."""
    suite = CipherSuite(b"bench", backend="shake", rng=SecureRandom(1))
    payload = bytes(4096)

    def encrypt_decrypt():
        return suite.decrypt_page(suite.encrypt_page(payload))

    result = benchmark(encrypt_decrypt)
    assert result == payload
    per_round = benchmark.stats.stats.mean
    mb_per_s = 2 * len(payload) / per_round / 1e6
    headers = ["backend", "MB/s (this machine)", "paper r_ed"]
    report.note("software AEAD throughput (4 KiB pages, encrypt+decrypt)")
    report.table(
        headers,
        [["shake", f"{mb_per_s:.1f}", "10 MB/s (HW engine, simulated)"]],
        terminal_only=headers,
    )
