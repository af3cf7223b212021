import json
import os
import shutil
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "zetakit.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, cwd=cwd
    )


@pytest.fixture(scope="module")
def seeded_cache(tmp_path_factory):
    """One scan to t = 30 shared by the read-only CLI tests."""
    path = tmp_path_factory.mktemp("cache") / "zeros.cache"
    out = run_cli("zeros", "--t-max", "30", "--cache", str(path))
    assert out.returncode == 0, out.stderr
    return path


def test_zeros_scan_writes_cache(seeded_cache, tmp_path):
    lines = seeded_cache.read_text().splitlines()
    assert lines[0] == "# zeta-zeros v1 digits=30"
    assert len(lines) == 4
    assert lines[1].startswith("1,14.134725141734693790457")
    assert lines[3].split(",")[4] == "refined"


def test_zeros_rerun_is_idempotent(seeded_cache, tmp_path):
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    first = run_cli("zeros", "--t-max", "30", "--cache", str(copy))
    assert first.returncode == 0
    assert copy.read_text() == seeded_cache.read_text()
    second = run_cli("zeros", "--t-max", "30", "--cache", str(copy))
    assert second.stdout == first.stdout


def test_zeros_json_format(tmp_path, seeded_cache):
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    out = run_cli("zeros", "--t-max", "30", "--cache", str(copy), "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["n_sign_changes"] == 3
    assert doc["n_winding"] == 3
    assert doc["flagged"] is False


def test_zeros_empty_range_clean_exit(tmp_path):
    path = tmp_path / "empty.cache"
    out = run_cli("zeros", "--t-max", "10", "--cache", str(path))
    assert out.returncode == 0
    assert path.read_text() == "# zeta-zeros v1 digits=30\n"


def test_zeros_digits_mismatch_rejected(tmp_path, seeded_cache):
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    out = run_cli("zeros", "--t-max", "30", "--digits", "20", "--cache", str(copy))
    assert out.returncode == 2
    assert "digits" in out.stderr


def test_zeros_digits_checked_before_scan(tmp_path, seeded_cache, monkeypatch):
    from zetakit import cli

    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran before the cache digits were checked")

    monkeypatch.setattr(cli, "scan_with_count", no_scan)
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    assert cli.main(["zeros", "--t-max", "30", "--digits", "20", "--cache", str(copy)]) == 2
    assert copy.read_text() == seeded_cache.read_text()


def test_grid_too_coarse_names_both_counts_and_writes_no_cache(tmp_path, monkeypatch, capsys):
    # A Backlund count one above the 4 sign changes below t = 31.5 survives
    # both grid halvings: a finding, exit 1, with both counts on stderr and
    # neither the cache nor its temporary file written.
    from zetakit import cli, zeros

    count = zeros.count_by_argument
    monkeypatch.setattr(zeros, "count_by_argument", lambda T: count(T) + 1)
    path = tmp_path / "z.cache"
    assert cli.main(["zeros", "--t-max", "31.5", "--cache", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sign-change count 4" in err and "Backlund count 5" in err, err
    assert list(tmp_path.iterdir()) == []


def test_cache_records_out_of_index_order_rejected(tmp_path, seeded_cache, monkeypatch):
    """A cache whose second record claims index 5 is refused with exit 2
    before any scan, by zeros (which would append a second index 5) and
    by laurent (which would report zero 2 as zero 5)."""
    from zetakit import cli

    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran on a cache with misnumbered records")

    monkeypatch.setattr(cli, "scan_with_count", no_scan)
    bad = tmp_path / "bad.cache"
    lines = seeded_cache.read_text().splitlines(keepends=True)
    assert lines[2].startswith("2,")
    lines[2] = "5," + lines[2][2:]
    bad.write_text("".join(lines))
    assert cli.main(["zeros", "--t-max", "33", "--cache", str(bad)]) == 2
    assert bad.read_text() == "".join(lines)
    out = run_cli("laurent", "--index", "5", "--terms", "1", "--k-max", "100", "--cache", str(bad))
    assert out.returncode == 2
    assert "index" in out.stderr


def test_cache_ordinate_outside_the_height_range_rejected(tmp_path, capsys):
    """A record at t = 5, below HEIGHT_MIN and so below any zero the
    pipeline finds, is refused with exit 2 and the line named, by audit
    (which would rewrite it as suspect), zeros (which would call the cache
    stale) and laurent (which would refine below the double tiers); the
    cache is left as it was."""
    from zetakit import cli

    bad = tmp_path / "low.cache"
    bad.write_text("# zeta-zeros v1 digits=30\n1,5.0,1.0,0,refined\n")
    before = bad.read_bytes()
    for argv in (
        ["audit", "--t-max", "15"],
        ["zeros", "--t-max", "15"],
        ["laurent", "--index", "1", "--terms", "1", "--k-max", "100"],
    ):
        assert cli.main(argv + ["--cache", str(bad)]) == 2, argv
        assert "line 2: ordinate 5.0 outside [10, 1000]" in capsys.readouterr().err, argv
        assert bad.read_bytes() == before, argv


def test_zeros_extension_matches_fresh_scan(tmp_path, seeded_cache):
    extended = tmp_path / "extended.cache"
    shutil.copy(seeded_cache, extended)
    fresh = tmp_path / "fresh.cache"
    out = run_cli("zeros", "--t-max", "40", "--cache", str(extended))
    assert out.returncode == 0, out.stderr
    assert run_cli("zeros", "--t-max", "40", "--cache", str(fresh)).returncode == 0
    assert extended.read_bytes() == fresh.read_bytes()
    assert not os.path.exists(str(extended) + ".tmp")


def test_failed_cache_rename_leaves_no_temporary_file(tmp_path, seeded_cache, monkeypatch, capsys):
    """A rename that fails as the extended cache is written exits 2 with
    one error line, removes the temporary file and leaves the cache's
    bytes as they were."""
    from zetakit import cli, zeros

    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    before = copy.read_bytes()
    monkeypatch.setattr(zeros.os, "replace", refuse)
    assert cli.main(["zeros", "--t-max", "33", "--cache", str(copy)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot rename"), err
    assert list(tmp_path.iterdir()) == [copy]
    assert copy.read_bytes() == before


def test_zeros_and_audit_with_contour_near_a_zero(tmp_path):
    """--t-max 21.0220 lies 4e-5 below the second zero, so the counting
    contour has to move off it; both counts still refer to t <= 21.0220."""
    path = str(tmp_path / "near.cache")
    zeros = run_cli("zeros", "--t-max", "21.0220", "--cache", path)
    assert zeros.returncode == 0, zeros.stderr
    audit = run_cli("audit", "--t-max", "21.0220", "--cache", path)
    assert audit.returncode == 0, audit.stderr
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 2


def test_audit_updates_statuses(tmp_path, seeded_cache):
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    out = run_cli("audit", "--t-max", "30", "--cache", str(copy))
    assert out.returncode == 0, out.stderr
    body = copy.read_text().splitlines()
    assert all(line.endswith("simple-confirmed") for line in body[1:])
    assert "meets_threshold_low" in out.stdout
    rows = [line for line in out.stdout.splitlines() if line.startswith(("1,", "2,", "3,"))]
    assert len(rows) == 3


def test_audit_json_format(tmp_path, seeded_cache):
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    out = run_cli("audit", "--t-max", "30", "--cache", str(copy), "--format", "json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert len(doc["zeros"]) == 3
    assert doc["summary"]["n_simple"] == 3
    assert doc["summary"]["meets_threshold_high"] is True


def test_audit_missing_cache_errors(tmp_path):
    out = run_cli("audit", "--cache", str(tmp_path / "absent.cache"))
    assert out.returncode == 2


def _no_read(*args, **kwargs):
    raise AssertionError("a cache was read past the cache gate")


def test_zeros_refuses_a_cache_in_a_missing_directory_before_the_scan(tmp_path, monkeypatch, capsys):
    from zetakit import cli

    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran for a cache that cannot be written")

    monkeypatch.setattr(cli, "scan_with_count", no_scan)
    monkeypatch.setattr(cli, "read_cache", _no_read)
    missing = tmp_path / "missing"
    assert cli.main(["zeros", "--t-max", "15", "--cache", str(missing / "x.cache")]) == 2
    assert capsys.readouterr().err == f"cache directory {missing} does not exist\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["zeros"], ["audit"], ["laurent", "--index", "1"]], ids=lambda c: c[0])
def test_a_directory_as_cache_is_refused(tmp_path, monkeypatch, capsys, command):
    from zetakit import cli

    monkeypatch.setattr(cli, "read_cache", _no_read)
    assert cli.main([*command, "--cache", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"cache {tmp_path} is not a regular file\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["zeros", "--t-max", "33"], ["audit", "--t-max", "30"]], ids=lambda a: a[0])
def test_an_unwritable_cache_exits_2_with_one_line(tmp_path, seeded_cache, monkeypatch, capsys, argv):
    from zetakit import cli

    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)

    def refused(path, records, ctx):
        raise PermissionError(13, "Permission denied", path + ".tmp")

    monkeypatch.setattr(cli, "write_cache", refused)
    assert cli.main([*argv, "--cache", str(copy)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 13] Permission denied: '{copy}.tmp'\n"
    assert copy.read_bytes() == seeded_cache.read_bytes()


@pytest.mark.parametrize("command", [["audit"], ["laurent", "--index", "1"]], ids=lambda c: c[0])
def test_a_missing_cache_is_named_before_it_is_read(tmp_path, monkeypatch, capsys, command):
    from zetakit import cli

    monkeypatch.setattr(cli, "read_cache", _no_read)
    absent = tmp_path / "absent.cache"
    assert cli.main([*command, "--cache", str(absent)]) == 2
    assert capsys.readouterr().err == f"{command[0]} needs a populated cache, none at {absent}\n"


def test_zeros_exits_1_on_a_cache_the_fresh_scan_contradicts(tmp_path, seeded_cache, capsys):
    """A cached ordinate moved by 1e-5 is named on stderr, exit 1, and the
    cache is left as it was."""
    from decimal import Decimal, localcontext

    from zetakit import cli

    lines = seeded_cache.read_text().splitlines(keepends=True)
    index, t, rest = lines[2].split(",", 2)
    with localcontext() as dec:
        dec.prec = 60
        lines[2] = f"{index},{Decimal(t) + Decimal('1e-5')},{rest}"
    stale = tmp_path / "stale.cache"
    stale.write_text("".join(lines))
    before = stale.read_bytes()
    assert cli.main(["zeros", "--t-max", "30", "--cache", str(stale)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "disagrees with fresh scan" in captured.err and captured.err.endswith("at index 2\n"), captured.err
    assert stale.read_bytes() == before


def _gave_up(monkeypatch, error):
    """Force one error of the group where the code gave up: a Newton that
    never converges, an Euler-Maclaurin tail that always stalls, a count
    segment on a zero at every shift, a probe with no integer winding."""
    from zetakit import errors, zeros

    def raising(*args):
        raise getattr(errors, error)("forced")

    if error == "NoConvergenceError":
        monkeypatch.setattr(zeros, "_newton", lambda *args: None)
    elif error == "PrecisionEscalationError":
        monkeypatch.setattr(sys.modules["zetakit.zeta"], "tail_jet", lambda *args: None)
    elif error == "ContourNearZeroError":
        monkeypatch.setattr(zeros, "_float_count", lambda T: None)
        monkeypatch.setattr(zeros, "_backlund_count", raising)
    else:
        monkeypatch.setattr(zeros, "multiplicity_probe", raising)


GAVE_UP = [  # (error, command, what its stderr line says)
    ("NoConvergenceError", "zeros", "Newton did not converge near t="),
    ("PrecisionEscalationError", "zeros", "Euler-Maclaurin stalled at s="),
    ("ContourNearZeroError", "zeros", "count_by_argument failed after 5 shifts: forced"),
    ("NonIntegerWindingError", "audit", "forced"),
]


@pytest.mark.parametrize("error, command, says", GAVE_UP, ids=[case[0] for case in GAVE_UP])
def test_a_gave_up_error_leaves_the_cache_as_it_was(tmp_path, seeded_cache, monkeypatch, capsys, error, command, says):
    """Each error of the gave-up group (ROADMAP item 5) exits 1 today with
    one ``numerical finding:`` line, and neither rewrites a cache nor
    creates an absent one."""
    from zetakit import cli

    _gave_up(monkeypatch, error)
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    absent = tmp_path / "absent.cache"
    runs = [copy] + ([absent] if command == "zeros" else [])
    for path in runs:
        t_max = "33" if command == "zeros" else "30"
        assert cli.main([command, "--t-max", t_max, "--workers", "1", "--cache", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"numerical finding: {says}"), captured.err
    assert copy.read_bytes() == seeded_cache.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.cache"]


def test_audit_empty_cache_errors(tmp_path):
    path = tmp_path / "empty.cache"
    path.write_text("# zeta-zeros v1 digits=30\n")
    out = run_cli("audit", "--t-max", "30", "--cache", str(path))
    assert out.returncode == 2


def test_laurent_report(seeded_cache):
    out = run_cli(
        "laurent", "--index", "2", "--terms", "3", "--k-max", "2000",
        "--cache", str(seeded_cache),
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["index"] == 2
    assert doc["n_terms"] == 3
    assert len(doc["coeffs"]) == 3
    assert set(doc["residuals"]) == {"0", "1", "2", "3"}
    assert set(doc["phi_diagnostics"]) == {"0", "1"}
    assert doc["rho"]["re"].startswith("0.5")
    assert doc["rho"]["im"].startswith("21.02203963877")


def test_laurent_radius_of_the_last_cached_zero(tmp_path):
    """With zero index+1 not cached, the validity radius still respects the
    gap to it: the cache holds zeros 1-4 from mpmath, and zero 5 lies
    2.51 above zero 4, nearer than zero 3 below it."""
    from mpmath import mp

    with mp.workdps(40):
        ts = [mp.zetazero(n).imag for n in range(1, 6)]
        lines = ["# zeta-zeros v1 digits=30\n"]
        for n, t in enumerate(ts[:4], start=1):
            zp = abs(mp.zeta(mp.mpc(0.5, t), derivative=1))
            lines.append(f"{n},{mp.nstr(t, 35)},{mp.nstr(zp, 35)},0,refined\n")
    path = tmp_path / "zeros.cache"
    path.write_text("".join(lines))
    out = run_cli(
        "laurent", "--index", "4", "--terms", "2", "--k-max", "1000", "--cache", str(path),
    )
    assert out.returncode == 0, out.stderr
    radius = float(json.loads(out.stdout)["radius"])
    assert 0 < radius <= 0.8 * float(ts[4] - ts[3])


def test_laurent_reads_mu_only_to_the_last_default_checkpoint(seeded_cache, monkeypatch, capsys):
    # The report's checkpoints stop at 10^6, so --k-max 10^8 prints the
    # bytes of --k-max 10^6, and both sieve mu only to the 2 (10^6)^(2/3)
    # of the hyperbola recursion.
    from zetakit import cli, mobius

    limits = []
    sieve = mobius.sieve_mobius
    monkeypatch.setattr(mobius, "sieve_mobius", lambda N: limits.append(N) or sieve(N))
    outs = []
    for k_max in (10**8, 10**6):
        argv = ["laurent", "--index", "1", "--terms", "2", "--k-max", str(k_max), "--cache", str(seeded_cache)]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert limits == [20000, 20000]
    assert outs[0] == outs[1]


def test_laurent_default_k_max_peak_memory(seeded_cache):
    # The Mobius sums to K = 10^6 keep their jets only at the floor values
    # of the recursion.
    # The child reads its own high-water mark, VmHWM: its ru_maxrss would
    # also count the pages of this test process it was started from, since
    # Linux keeps the old image's high-water mark across exec.
    code = (
        "import sys\n"
        "from zetakit import cli\n"
        f"rc = cli.main(['laurent', '--index', '1', '--k-max', '1000000', '--cache', {str(seeded_cache)!r}])\n"
        "peak = next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(rc, peak, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    rc, peak_kb = out.stderr.split()[-2:]
    assert rc == "0", out.stderr
    assert int(peak_kb) / 1024 < 60, f"peak RSS {int(peak_kb) / 1024:.1f} MB"


def test_laurent_unknown_index(seeded_cache):
    out = run_cli("laurent", "--index", "99", "--cache", str(seeded_cache))
    assert out.returncode == 2
    assert "index" in out.stderr


def test_laurent_exits_1_below_the_simplicity_floor(seeded_cache, monkeypatch, capsys):
    # A zeta'(rho) at or below the floor is a numerical finding: the
    # expansion is refused, not reported.
    from zetakit import cli, laurent

    jet = laurent.zeta_jet

    def flat(*args):
        out = jet(*args)
        out[1] = out[1] * 1e-9
        return out

    monkeypatch.setattr(laurent, "zeta_jet", flat)
    argv = ["laurent", "--index", "1", "--terms", "2", "--k-max", "100", "--cache", str(seeded_cache)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical finding" in captured.err
    assert "simplicity floor" in captured.err


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _laurent_runs(monkeypatch, capsys, argv, force=False):
    """(stdout, refine_zero calls) of one in-process laurent run; force
    keeps no cached zero, so the run goes through refinement."""
    from zetakit import cli

    calls = []
    refine = cli.refine_zero
    with monkeypatch.context() as m:
        m.setattr(cli, "refine_zero", lambda *a: calls.append(a) or refine(*a))
        if force:
            m.setattr(cli, "expansion_at_cached_zero", lambda *a: None)
        assert cli.main(["laurent", "--terms", "8", "--k-max", "1000", *argv]) == 0
    return capsys.readouterr().out, len(calls)


@pytest.mark.parametrize("golden,digits,indices", [("zeros", 30, (1, 4)), ("zeros_d60", 60, (1, 6)),
                                                   ("zeros_d200", 200, (2,))])
def test_laurent_keeps_a_cached_zero_its_jet_confirms(monkeypatch, capsys, golden, digits, indices):
    """On a cache at --digits, one Newton step from the expansion's jet
    confirms the cached zero: no refine_zero call, and the bytes of a run
    refined again."""
    for index in indices:
        argv = ["--index", str(index), "--digits", str(digits), "--cache", os.path.join(GOLDEN, f"{golden}.cache")]
        kept, refined = _laurent_runs(monkeypatch, capsys, argv), _laurent_runs(monkeypatch, capsys, argv, force=True)
        assert (kept[1], refined[1]) == (0, 1), index
        assert kept[0] == refined[0], index


def test_laurent_refines_a_zero_cached_at_other_digits(monkeypatch, capsys):
    argv = ["--index", "2", "--digits", "30", "--cache", os.path.join(GOLDEN, "zeros_d60.cache")]
    assert _laurent_runs(monkeypatch, capsys, argv)[1] == 1


def test_laurent_refines_a_moved_cached_ordinate(tmp_path, monkeypatch, capsys):
    """A cached ordinate moved by 1e-25 is not kept: it is refined once,
    back to the bytes of the unmoved cache."""
    from mpmath import mpf

    from zetakit.precision import PrecisionContext
    from zetakit.zeros import read_cache, write_cache

    golden = os.path.join(GOLDEN, "zeros.cache")
    digits, records = read_cache(golden)
    ctx = PrecisionContext.from_digits(digits)
    with ctx.wp():
        records[1] = records[1]._replace(t=records[1].t + mpf("1e-25"))
    moved = tmp_path / "moved.cache"
    write_cache(str(moved), records, ctx)
    assert moved.read_bytes() != open(golden, "rb").read()
    out, calls = _laurent_runs(monkeypatch, capsys, ["--index", "2", "--cache", str(moved)])
    assert calls == 1
    assert out == _laurent_runs(monkeypatch, capsys, ["--index", "2", "--cache", golden])[0]


def test_laurent_terms_validation(seeded_cache):
    out = run_cli("laurent", "--index", "1", "--terms", "13", "--cache", str(seeded_cache))
    assert out.returncode == 2


def test_stieltjes_csv_shape():
    out = run_cli("stieltjes", "--n-max", "3", "--digits", "15")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "n,gamma_n,bound,margin"
    assert len(lines) == 5
    assert lines[1].startswith("0,0.57721566490153")
    assert lines[1].endswith(",,")
    n, g, b, m = lines[2].split(",")
    assert n == "1" and g.startswith("-0.0728158") and float(b) > 0 and float(m) > 0


def test_stieltjes_range(tmp_path):
    out = run_cli("stieltjes", "--n-max", "21")
    assert out.returncode == 2


def test_mertens_values():
    out = run_cli("mertens", "--x", "100", "--k-max", "1000")
    assert out.returncode == 0
    assert out.stdout.strip() == "1"
    # Published values: M(10^6) = 212, M(10^7) = 1037, M(10^8) = 1928.
    for x, k_max, m in ((10**6, 10**7, "212"), (10**7, 10**7, "1037"), (10**8, 10**8, "1928")):
        out = run_cli("mertens", "--x", str(x), "--k-max", str(k_max))
        assert out.returncode == 0
        assert out.stdout.strip() == m


def test_mertens_sieves_about_x_to_the_two_thirds(monkeypatch, capsys):
    from zetakit import cli, mobius

    limits = []
    sieve = mobius.sieve_mobius
    monkeypatch.setattr(mobius, "sieve_mobius", lambda N: limits.append(N) or sieve(N))
    x = 10**7
    assert cli.main(["mertens", "--x", str(x), "--k-max", str(x)]) == 0
    assert capsys.readouterr().out == "1037\n"
    assert limits and max(limits) <= 4 * x ** (2 / 3)


def test_mertens_beyond_sieve():
    out = run_cli("mertens", "--x", "1000000000")
    assert out.returncode == 2


def test_digits_range_rejected(tmp_path):
    out = run_cli("zeros", "--digits", "5", "--cache", str(tmp_path / "c"))
    assert out.returncode == 2
    out = run_cli("zeros", "--digits", "300", "--cache", str(tmp_path / "c"))
    assert out.returncode == 2


def test_t_max_range_rejected(tmp_path):
    out = run_cli("zeros", "--t-max", "2000", "--cache", str(tmp_path / "c"))
    assert out.returncode == 2
    # Below the first zero the option is refused before the cache is read.
    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"not a cache\n")
    for command in ("zeros", "audit"):
        out = run_cli(command, "--t-max", "5", "--cache", str(bad))
        assert out.returncode == 2, (command, out.stderr)
        assert "--t-max" in out.stderr, (command, out.stderr)
        assert bad.read_bytes() == b"not a cache\n", command


def test_unknown_subcommand_usage_exit():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_env_cache_fallback(tmp_path):
    path = tmp_path / "env.cache"
    out = run_cli("zeros", "--t-max", "15", env_extra={"ZETA_CACHE": str(path)})
    assert out.returncode == 0, out.stderr
    assert path.exists()


def test_empty_env_cache_counts_as_unset(tmp_path, monkeypatch):
    from zetakit import cli

    monkeypatch.setenv("ZETA_CACHE", "")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["zeros", "--t-max", "15"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["zeta_zeros.cache"]


def test_worker_count_does_not_change_output(tmp_path):
    a_cache = tmp_path / "a.cache"
    b_cache = tmp_path / "b.cache"
    a = run_cli("zeros", "--t-max", "30", "--workers", "1", "--cache", str(a_cache))
    b = run_cli("zeros", "--t-max", "30", "--workers", "2", "--cache", str(b_cache))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a_cache.read_text() == b_cache.read_text()


# Each subcommand against the common options it does not read.
UNREAD = [
    (command, option)
    for command, reads in (
        (("zeros",), {"--digits", "--t-max", "--format", "--cache", "--workers"}),
        (("audit",), {"--digits", "--t-max", "--format", "--cache", "--workers"}),
        (("laurent", "--index", "1"), {"--digits", "--k-max", "--cache"}),
        (("stieltjes",), {"--digits"}),
        (("mertens", "--x", "10"), {"--digits", "--k-max"}),
    )
    for option in ("--digits", "--t-max", "--k-max", "--format", "--cache", "--workers")
    if option not in reads
]
VALUES = {"--t-max": "30", "--k-max": "1000", "--format": "json", "--cache": "c.cache", "--workers": "2"}


@pytest.mark.parametrize("command,option", UNREAD, ids=[f"{c[0]}{o}" for c, o in UNREAD])
def test_unread_option_rejected(command, option, capsys):
    from zetakit import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([*command, option, VALUES[option]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_audit_digits_mismatch_rejected_before_any_probe(tmp_path, seeded_cache, monkeypatch):
    from zetakit import cli

    def no_probe(*args, **kwargs):
        raise AssertionError("audit probed before the cache digits were checked")

    monkeypatch.setattr(cli, "audit_zeros", no_probe)
    copy = tmp_path / "copy.cache"
    shutil.copy(seeded_cache, copy)
    assert cli.main(["audit", "--t-max", "30", "--digits", "20", "--cache", str(copy)]) == 2
    assert copy.read_bytes() == seeded_cache.read_bytes()


def test_audit_refuses_a_cache_that_stops_below_t_max(tmp_path, seeded_cache, monkeypatch, capsys):
    """The cache scanned to t = 30 holds 3 zeros, and 29 lie below audit's
    default --t-max 100: with no cached zero above 100, the missing ones
    were never scanned, so audit exits 2 before any probe, leaves the cache
    as it was and asks for the scan.  Where a cached zero lies above
    --t-max, a zero missing below it is still a finding (exit 1)."""
    from zetakit import cli

    audit_zeros = cli.audit_zeros

    def probe_only_the_gap(records, *args):
        assert len(records) == 1, "audit probed a cache that stops below --t-max"
        return audit_zeros(records, *args)

    monkeypatch.setattr(cli, "audit_zeros", probe_only_the_gap)
    short = tmp_path / "short.cache"
    shutil.copy(seeded_cache, short)
    assert cli.main(["audit", "--cache", str(short)]) == 2
    err = capsys.readouterr().err
    assert "ends at t=25.0108575801" in err and "run zeros --t-max 100.0" in err, err
    assert short.read_bytes() == seeded_cache.read_bytes()
    header, first, _, third = seeded_cache.read_text().splitlines()
    gap = tmp_path / "gap.cache"
    gap.write_text("\n".join([header, first, "2," + third.split(",", 1)[1]]) + "\n")
    assert cli.main(["audit", "--t-max", "22", "--cache", str(gap)]) == 1
    assert "n_sign_changes" in capsys.readouterr().out


@pytest.mark.parametrize("digits", [3, 201])
def test_audit_rejects_cache_digits_out_of_range(tmp_path, seeded_cache, monkeypatch, capsys, digits):
    # audit runs at the digits of the cache header, so they take the range
    # of --digits: refused before any probe, the cache left as it was.
    from zetakit import cli

    def no_probe(*args, **kwargs):
        raise AssertionError("audit probed a cache with digits out of range")

    monkeypatch.setattr(cli, "audit_zeros", no_probe)
    header, rest = seeded_cache.read_text().split("\n", 1)
    path = tmp_path / "odd.cache"
    path.write_text(header.replace("digits=30", f"digits={digits}") + "\n" + rest)
    before = path.read_bytes()
    assert cli.main(["audit", "--t-max", "30", "--cache", str(path)]) == 2
    assert f"holds digits={digits}, outside [10, 200]" in capsys.readouterr().err
    assert path.read_bytes() == before


@pytest.mark.parametrize("digits", [3, 201])
def test_laurent_rejects_cache_digits_out_of_range(tmp_path, seeded_cache, monkeypatch, capsys, digits):
    # laurent reads the cached zero and its neighbours at the header's
    # digits: out of range, the cache is refused before any expansion or
    # refinement and left as it was.
    from zetakit import cli

    def no_refine(*args, **kwargs):
        raise AssertionError("laurent refined a zero from a cache with digits out of range")

    monkeypatch.setattr(cli, "refine_zero", no_refine)
    header, rest = seeded_cache.read_text().split("\n", 1)
    path = tmp_path / "odd.cache"
    path.write_text(header.replace("digits=30", f"digits={digits}") + "\n" + rest)
    before = path.read_bytes()
    assert cli.main(["laurent", "--index", "2", "--terms", "1", "--k-max", "1000", "--cache", str(path)]) == 2
    assert f"holds digits={digits}, outside [10, 200]" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_every_option_comes_from_the_table():
    """Each add_argument of the CLI takes its settings from _OPTIONS, so
    one table holds every option and its range check."""
    import ast
    import inspect

    from zetakit import cli

    calls = [
        node for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
    ]
    assert calls
    for call in calls:
        [kw] = call.keywords
        assert kw.arg is None and isinstance(kw.value, ast.Subscript), ast.unparse(call)
        assert ast.unparse(kw.value).startswith("_OPTIONS["), ast.unparse(call)


def test_audit_takes_its_digits_from_the_cache(tmp_path):
    path = tmp_path / "d20.cache"
    assert run_cli("zeros", "--t-max", "15", "--digits", "20", "--cache", str(path)).returncode == 0
    out = run_cli("audit", "--t-max", "15", "--cache", str(path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1].startswith("1,14.134725141734693790,")
    assert path.read_text().splitlines()[1].endswith("simple-confirmed")


def test_main_runs_the_handler_bound_at_call_time(monkeypatch):
    from zetakit import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_stieltjes", lambda args: seen.append(args.n_max) or 0)
    assert cli.main(["stieltjes", "--n-max", "3"]) == 0
    assert seen == [3]
