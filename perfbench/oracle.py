"""Independent checks of every benchmark operation's output.

References come from mpmath at digits + 10 (``zetazero``, ``nzeros``,
``zeta`` and its derivatives, ``siegelz``, ``stieltjes``) and, for the
Mertens sum, from a Mobius computation of the benchmark's own.  No check
calls zetakit.  A value passes when it matches the reference to the
requested digits relative to max(|reference|, 1), plus half a unit in
the last digit the program printed.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import mpmath as mp


class Oracle:
    """Memoized mpmath references at a fixed precision."""

    def __init__(self, digits: int):
        self.digits = digits
        self.dps = digits + 10
        self._zeros: dict[int, mp.mpc] = {}
        self._stieltjes: dict[int, mp.mpf] = {}

    def _close(self, value, ref, what: str, problems: list) -> None:
        """Compare a decimal string, or a (re, im) pair of them, with ref."""
        parts = value if isinstance(value, tuple) else (value,)
        with mp.workdps(self.dps):
            value = mp.mpc(*parts) if len(parts) == 2 else mp.mpf(parts[0])
            err = abs(value - ref)
            allowed = mp.mpf(10) ** (-self.digits) * max(abs(ref), 1) + sum(_half_ulp(p) for p in parts)
            if err > allowed:
                problems.append(f"{what}: {mp.nstr(value, 12)} differs from {mp.nstr(ref, 12)} by {mp.nstr(err, 3)}")

    def zetazero(self, n: int) -> mp.mpc:
        if n not in self._zeros:
            with mp.workdps(self.dps):
                self._zeros[n] = mp.zetazero(n)
        return self._zeros[n]

    def nzeros(self, T: str) -> int:
        with mp.workdps(self.dps):
            return int(mp.nzeros(mp.mpf(T)))

    # ------------------------------------------------------------------
    # CLI outputs
    # ------------------------------------------------------------------

    def check_zeros(self, T: str, stdout: str, cache_text: str) -> list[str]:
        problems: list[str] = []
        summary = _csv_rows(stdout)[-1]
        expect = self.nzeros(T)
        got = (int(summary["n_sign_changes"]), int(summary["n_winding"]))
        if got != (expect, expect):
            problems.append(f"zeros: n_sign_changes, n_winding = {got}, mp.nzeros({T}) = {expect}")
        lines = [ln for ln in cache_text.splitlines() if ln and not ln.startswith("#")]
        if len(lines) != expect:
            problems.append(f"zeros: cache holds {len(lines)} zeros, expected {expect}")
        for line in lines:
            index, t = line.split(",")[:2]
            self._close(t, self.zetazero(int(index)).imag, f"zeros: t_{index}", problems)
        return problems

    def check_audit(self, T: str, stdout: str) -> list[str]:
        problems: list[str] = []
        rows = list(csv.DictReader(io.StringIO(stdout.split("\nT,", 1)[0])))
        expect = self.nzeros(T)
        if len(rows) != expect:
            problems.append(f"audit: {len(rows)} zeros audited, expected {expect}")
        for row in rows:
            if row["status"] != "simple-confirmed" or row["winding"] != "1":
                problems.append(f"audit: zero {row['index']} is {row['status']} with winding {row['winding']}")
        return problems

    def check_laurent(self, index: int, stdout: str) -> list[str]:
        problems: list[str] = []
        report = json.loads(stdout)
        rho = self.zetazero(index)
        with mp.workdps(self.dps):
            zp = mp.zeta(rho, derivative=1)
            zpp = mp.zeta(rho, derivative=2)
            residue_ref = 1 / zp
            c0_ref = -zpp / (2 * zp**2)
        for name, value, ref in (("residue", report["residue"], residue_ref),
                                 ("c_0", report["coeffs"][0], c0_ref)):
            self._close((value["re"], value["im"]), ref, f"laurent {index}: {name}", problems)
        return problems

    def check_stieltjes(self, n_max: int, stdout: str) -> list[str]:
        problems: list[str] = []
        rows = _csv_rows(stdout)
        if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
            return [f"stieltjes: rows {[r['n'] for r in rows]} are not 0..{n_max}"]
        for row in rows:
            n = int(row["n"])
            if n not in self._stieltjes:
                with mp.workdps(self.dps):
                    self._stieltjes[n] = mp.stieltjes(n)
            self._close(row["gamma_n"], self._stieltjes[n], f"stieltjes: gamma_{n}", problems)
        return problems

    @staticmethod
    def check_mertens(x: int, stdout: str) -> list[str]:
        expect = mertens_reference(x)
        got = int(stdout.strip())
        return [] if got == expect else [f"mertens: M({x}) = {got}, expected {expect}"]

    # ------------------------------------------------------------------
    # Library calls
    # ------------------------------------------------------------------

    def point_refs(self, fn: str, sigma: float, t: float, digits: int) -> list:
        with mp.workdps(digits + 10):
            if fn == "hardy_Z":
                return [mp.siegelz(mp.mpf(t))]
            s = mp.mpc(sigma, t)
            if fn == "zeta":
                return [mp.zeta(s)]
            return [mp.zeta(s), mp.zeta(s, derivative=1)]

    @staticmethod
    def point_digits(values: list[str], refs: list) -> float:
        """Digits of agreement of the worst output value, relative to
        max(|reference|, 1)."""
        worst = mp.inf
        with mp.workdps(80):
            for value, ref in zip(values, refs):
                err = abs(mp.mpmathify(value) - ref) / max(abs(ref), 1)
                worst = min(worst, mp.inf if err == 0 else -mp.log10(err))
        return float(worst)


def _half_ulp(text: str):
    """Half a unit in the last digit of a printed decimal number."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return mp.mpf(10) ** (int(exponent or 0) - decimals) / 2


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def mertens_reference(x: int) -> int:
    """M(x) from the identity sum_{n<=x} M(x/n) = 1 over the distinct
    quotients, with mu below x^(2/3) from a linear sieve."""
    limit = max(int(round(x ** (2 / 3))), 2)
    mu = [0, 1] + [1] * (limit - 1)
    composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            composite[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    small = list(itertools.accumulate(mu))
    memo: dict[int, int] = {}

    def M(n: int) -> int:
        if n <= limit:
            return small[n]
        if n not in memo:
            total, k = 1, 2
            while k <= n:
                q = n // k
                k_hi = n // q
                total -= (k_hi - k + 1) * M(q)
                k = k_hi + 1
            memo[n] = total
        return memo[n]

    return M(x)
