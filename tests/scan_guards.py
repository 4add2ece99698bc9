"""Print the guard lines of ``tests/data/guards.jsonl`` whose q = 3/2 gap
scans and q-power searches no safe prime below 2^15 can filter.

P is the product of the 281 safe primes p = 2r + 1 (r prime) below 2^15
(3642 bits), and N = 3^2844 (4508 bits), so P*N (8150 bits) stays inside
the parser's ``MAX_COEFF_BITS``.  Every safe prime below 2^15 divides the
leading coefficient P of P*x + 1, or the P*N of the constant coefficient,
and the root ratio N*P gives a q = 3/2 window of about 14000 steps.  A scan
whose moduli are only those primes runs an exact gcd or an exact
evaluation at every step and takes 40-70 s on a 2-core x86 host; a scan
that goes on to the primes below 2^30 takes well under a second.

Run it from anywhere as ``python tests/scan_guards.py``; it prints one JSON
line per guard, to append to the table.
"""

from __future__ import annotations

import json
import math


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


P = math.prod(p for p in range(5, 1 << 15, 2) if _is_prime(p) and _is_prime(p >> 1))
N = 3**2844

GUARDS = [
    ("scan-no-safe-prime-disp", "disp", {"poly": f"({P}*x+1)*(x-{N})"}, 1.25,
     {"verdict": "DISPERSION", "certificate": {"dispersion": 0}}),
    ("scan-no-safe-prime-solve", "solve-scalar", {"coeffs": f"1;{P}*{N}"}, 1.25,
     {"verdict": "SOLVED"}),
    ("scan-no-safe-prime-da-hypergeom", "da-hypergeom", {"b": f"({P}*x+1)/(x-{N})"}, 2.0,
     {"verdict": "DIFFERENTIALLY_TRANSCENDENTAL"}),
]


def main() -> None:
    assert P.bit_length() == 3642 and N.bit_length() == 4508 and (P * N).bit_length() == 8150
    for gid, sub, fields, seconds, report in GUARDS:
        query = {"subcommand": sub, "case": "q", "q": "3/2", **fields}
        print(json.dumps({"id": gid, "query": query, "seconds": seconds, "expect": {"exit": 0, "report": report}}))


if __name__ == "__main__":
    main()
