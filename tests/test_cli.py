"""CLI surface: routes, exit codes, report stability, rendering."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcount import cli, formulas, geometry, hyperid, matchcount, polyfactor, routes
from hexcount.geometry import TriRegion, down, up
from hexcount.render import region_svg
from test_properties import EDGES, seeded


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_box(capsys):
    code, out, _ = run(capsys, "count", "--box", "2", "2", "2", "--route", "all")
    assert code == 0
    assert "closed: 20" in out and "oracle: 20" in out


def test_count_box_with_zero_sides_agrees_on_one_tiling(capsys):
    # a zero side is the degenerate hexagon: every route prints its one tiling
    for box in ((0, 2, 2), (3, 0, 2), (0, 0, 0)):
        code, out, _ = run(capsys, "count", "--box", *map(str, box), "--route", "all", "--json")
        report = json.loads(out)
        assert code == 0 and report["agree"], box
        assert report["values"] == {"closed": "1", "oracle": "1"}, box


def test_count_all_routes_odd_case(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--N", "5", "--s", "2", "--route", "all")
    assert code == 0
    assert out.count("6720") == 3
    assert "agreement: yes" in out


def test_count_boundary_defect_notes(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--N", "4", "--s", "0", "--route", "all")
    assert code == 0
    assert "54" in out
    assert f"note: {routes.BOUNDARY_NOTE}" in out
    assert "surrogate region count" not in out


def test_count_small_even(capsys):
    # (12, 14, 0) and (12, 14, 12): the surrogate region there is too wide for
    # the oracle, but the oracle route counts only the two halves
    for case in [*EDGES, (12, 14, 0), (12, 14, 12)]:
        n, N, s = map(str, case)
        code, out, _ = run(capsys, "count", "--n", n, "--N", N, "--s", s,
                           "--route", "all", "--json")
        assert code == 0, case
        payload = json.loads(out)
        assert payload["agree"] is True, case
        assert len(payload["values"]) == 3 and len(set(payload["values"].values())) == 1, case


def test_count_oracle_at_a_boundary_plans_only_its_two_halves(capsys, monkeypatch):
    real = matchcount._plan
    plans = []
    monkeypatch.setattr(matchcount, "_plan", lambda g: plans.append(len(g.verts)) or real(g))
    code, _, _ = run(capsys, "count", "--route", "oracle", "--n", "6", "--N", "10", "--s", "0")
    assert code == 0
    assert len(plans) == 2  # the upper half and the boundary witness


@pytest.mark.parametrize("argv, loops, steps", [
    (["verify", "--max-n", "4", "--max-m", "4"], 112, 4108),
    (["count", "--route", "oracle", "--n", "6", "--N", "10", "--s", "2"], 1, 160),
])
def test_each_dp_plan_builds_its_steps_once(capsys, monkeypatch, argv, loops, steps):
    # one slot loop per plan: a symmetric graph's steps cover one side and
    # the axis, and no whole-graph steps are built beside them
    real = matchcount._steps
    built = []

    def counted(*args):
        steps = real(*args)
        built.append(len(steps))
        return steps

    monkeypatch.setattr(matchcount, "_steps", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert (len(built), sum(built)) == (loops, steps)


@st.composite
def cli_argvs(draw):
    """One command's argv: small, zero and negative ints, options left out,
    bad --t-list values, and --out as a file, a missing directory or a
    directory.  The placeholders in angle brackets name the --out kinds."""
    ints = st.integers(-1, 6)

    def opt(flag, values=ints):
        # left out one time in six, so most draws reach the command itself
        return [] if draw(st.integers(0, 5)) == 0 else [flag, str(draw(values))]

    def switches(*flags):
        return [flag for flag in flags if draw(st.booleans())]

    cmd = draw(st.sampled_from(
        ["count", "verify", "polydet", "identities", "asymptotic", "render"]))
    argv = [cmd]
    if cmd == "count":
        if draw(st.booleans()):
            argv += ["--box", *(str(draw(ints)) for _ in range(3))]
        argv += opt("--n") + opt("--N") + opt("--s")
        argv += opt("--route", st.sampled_from(["closed", "det", "oracle", "all"]))
        argv += switches("--json", "--timing")
    elif cmd == "verify":
        # a 6 x 6 grid takes seconds; 4 x 4 keeps each draw short
        small = st.integers(-1, 4)
        argv += opt("--max-n", small) + opt("--max-m", small) + switches("--json", "--timing")
    elif cmd == "polydet":
        argv += opt("--n") + opt("--s") + switches("--json")
    elif cmd == "identities":
        argv += opt("--suite", st.sampled_from(["vandermonde", "pfaff", "halb", "ganz", "all"]))
        argv += opt("--max-n") + opt("--seed") + opt("--count")
    elif cmd == "asymptotic":
        argv += opt("--alpha") + opt("--beta") + opt("--gamma")
        argv += opt("--t-list", st.sampled_from(["", "x", "4", "4,8"])) + switches("--json")
    else:
        argv += opt("--n") + opt("--N") + opt("--s")
        argv += opt("--half", st.sampled_from(["plus", "minus"]))
        argv += opt("--out", st.sampled_from(["<file>", "<missing>", "<dir>"]))
    return argv


@seeded(150)
@given(cli_argvs())
def test_every_argv_gets_an_exit_code_and_no_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        outs = {"<file>": os.path.join(tmp, "fig.svg"),
                "<missing>": os.path.join(tmp, "missing", "fig.svg"), "<dir>": tmp}
        argv = [outs.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 1) and ("--json" in argv or argv[0] == "identities"):
        json.loads(out.getvalue())


def test_count_json_is_byte_stable(capsys):
    _, first, _ = run(capsys, "count", "--n", "3", "--N", "4", "--s", "1",
                      "--route", "all", "--json")
    _, second, _ = run(capsys, "count", "--n", "3", "--N", "4", "--s", "1",
                       "--route", "all", "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["agree"] is True
    assert "wall_ms" not in payload


def test_count_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "count", "--n", "2", "--N", "4", "--s", "9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "--box", "1", "2", "3", "--route", "det")
    assert code == 2
    code, _, err = run(capsys, "count", "--box", "12", "12", "12", "--route", "oracle")
    assert code == 2 and "frontier of width" in err


def test_count_defect_needs_all_three_parameters(capsys):
    for argv in (("--n", "3", "--N", "4"), ("--n", "3", "--s", "1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", *argv])
        assert exc.value.code == cli.EXIT_USAGE
        assert "defect counting needs --n, --N and --s" in capsys.readouterr().err


def test_det_route_even_equals_closed_route():
    for n in range(1, 9):
        for m in range(1, 6):
            for s in range(0, n + 1):  # boundary s = 0 and s = n included
                assert routes.det_route(n, 2 * m, s) == routes.closed_route(n, 2 * m, s)


def test_det_route_odd_equals_closed_route():
    for n in range(1, 9):
        for N in range(1, 12, 2):  # N = 1 (m = 0) included
            for s in range(1, n + 1):  # s = 1 and s = n included
                assert routes.det_route(n, N, s) == routes.closed_route(n, N, s)


def test_count_prints_values_beyond_the_digit_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    code, out, err = run(capsys, "count", "--route", "closed", "--n", "200", "--N", "200",
                         "--s", "70", "--json")
    assert code == 0, err
    if get_limit:
        assert get_limit() == before
        sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["values"]["closed"] == str(formulas.even_case_count(200, 100, 70))
    finally:
        if get_limit:
            sys.set_int_max_str_digits(before)


def test_python_m_hexcount_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hexcount", "count", "--box", "2", "2", "2",
                           "--json"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["values"]["closed"] == "20"


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-m", "2")
    assert code == 0
    assert "all agree" in out


def test_verify_json_reports_checks(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-m", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    kinds = set()
    for case in payload["cases"]:
        assert case["agree"] is True
        kinds.update(case["checks"])
    assert {"product", "determinant", "oracle", "factorization", "mirror"} <= kinds


def test_verify_fault_injection_names_tuple(capsys, monkeypatch):
    # drop one half-weight mark from the lower half of (3, 2, 1) only
    real = geometry.split_halves

    def faulty(spec, region=None):
        upper, lower = real(spec, region)
        if (spec.n, spec.N, spec.s) == (3, 2, 1):
            edges = sorted(lower.half_weight_edges, key=sorted)
            lower = geometry.TriRegion(lower.triangles, frozenset(edges[1:]), lower.label)
        return upper, lower

    monkeypatch.setattr(geometry, "split_halves", faulty)
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-m", "1")
    assert code == 1
    assert "FAIL [factorization lower_half]" in out
    assert "disagreements at [{'n': 3, 'N': 2, 's': 1}]" in out
    # the bad region is counted in the (3, 2) block without touching its other cases
    lines = {line.split(":")[0]: line for line in out.splitlines()}
    for s in (0, 2, 3):
        assert " ok (" in lines[f"n=3 N=2 s={s}"]


@pytest.mark.parametrize("leaf", ["_upper_double_product", "box_count", "binomial",
                                  "superfactorial", "factorial"])
def test_verify_prints_every_case_when_a_value_fails(capsys, monkeypatch, leaf):
    # each leaf, one more than its value, makes a product fail to divide out
    # in some cases: those values fail their checks, and verify exits 3
    real = getattr(formulas, leaf)
    monkeypatch.setattr(formulas, leaf, lambda *args: real(*args) + 1)
    code, out, err = run(capsys, "verify", "--max-n", "3", "--max-m", "2", "--json")
    assert code == cli.EXIT_INTERNAL == 3
    payload = json.loads(out)
    assert len(payload["cases"]) == 30 and not payload["ok"]
    failed = [c for c in payload["cases"] if any("value failed" in n for n in c["notes"])]
    assert failed and all(not c["agree"] for c in failed)
    assert "internal exactness failure: a value failed at" in err
    assert err.count("'s':") == len(failed)


def _verify_text_notes(capsys, *argv):
    """Per case line of `verify`'s text output, the indented lines under it,
    and per case of its JSON, the note lines the text should show: every
    note of a case that does not agree, none of one that does."""
    code, out, _ = run(capsys, "verify", *argv)
    shown = {}
    for line in out.splitlines():
        if line.startswith("n="):
            case = shown[line.split(":")[0]] = []
        elif line.startswith(" "):
            case.append(line)
    json_code, out, _ = run(capsys, "verify", *argv, "--json")
    assert json_code == code
    expected = {
        "n={n} N={N} s={s}".format(**c["case"]):
            [] if c["agree"] else [f"  note: {note}" for note in c["notes"]]
        for c in json.loads(out)["cases"]
    }
    return code, shown, expected


def test_verify_text_prints_the_notes_of_each_failing_case(capsys, monkeypatch):
    # boundary cases carry notes, but a passing run prints none of them
    code, shown, expected = _verify_text_notes(capsys, "--max-n", "2", "--max-m", "1")
    assert code == 0 and shown == expected and not any(shown.values())
    # with box_count one more, the failed values' names and errors reach
    # the text reader under their cases
    real = formulas.box_count
    monkeypatch.setattr(formulas, "box_count", lambda *args: real(*args) + 1)
    code, shown, expected = _verify_text_notes(capsys, "--max-n", "2", "--max-m", "1")
    assert code == cli.EXIT_INTERNAL and shown == expected
    assert shown["n=2 N=3 s=1"] == [
        f"  note: {name} value failed: ArithmeticError('odd-case product did not divide out')"
        for name in ("closed", "mirror")]


def test_an_oracle_error_fails_only_its_block(capsys, monkeypatch):
    # the block (2, 3) counts its defect regions on the hexagon's graph; an
    # ArithmeticError there fails that block's oracle values and no others
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-m", "2", "--json")
    assert code == 0
    clean = json.loads(out)["cases"]
    hexagon = geometry.build_hexagon(2, 3, 2).triangles
    real = matchcount.count_without

    def faulty(g, absent):
        if set(g.verts) == hexagon:
            raise ArithmeticError("planted oracle fault")
        return real(g, absent)

    monkeypatch.setattr(matchcount, "count_without", faulty)
    code, out, err = run(capsys, "verify", "--max-n", "3", "--max-m", "2", "--json")
    assert code == cli.EXIT_INTERNAL and "a value failed at" in err
    cases = json.loads(out)["cases"]
    assert [c["case"] for c in cases] == [c["case"] for c in clean]
    block = [(c, before) for c, before in zip(cases, clean)
             if (c["case"]["n"], c["case"]["N"]) == (2, 3)]
    assert len(block) == 2
    for c, before in zip(cases, clean):
        if (c["case"]["n"], c["case"]["N"]) != (2, 3):
            assert json.dumps(c, sort_keys=True) == json.dumps(before, sort_keys=True)
    note = "oracle value failed: ArithmeticError('planted oracle fault')"
    for c, before in block:
        assert not c["agree"] and c["notes"] == before["notes"] + [note]
        assert {k for k, ok in c["checks"].items() if not ok} == {
            "oracle", "factorization", "upper_half", "lower_half"}
        assert c["values"]["oracle"] == "planted oracle fault"
    # the text reader sees every case, and the note under each failed one
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-m", "2")
    assert code == cli.EXIT_INTERNAL
    assert sum(line.startswith("n=") for line in out.splitlines()) == len(clean)
    assert out.count(f"  note: {note}") == 2


def test_verify_json_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--max-m", "4", "--json")
    assert code == 0
    digest = "dc51123a73298b90de7580b41d444ff72fcc89ecef89057f68b83e3d780bf813"
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_verify_timing_holds_the_shared_counting(capsys, monkeypatch):
    # a fixed delay in each shared count of a block lands in the wall time of
    # the block's first case, and in no other case's
    delay = 0.1
    real = routes.count_subregions
    calls = []

    def slow(base, regions):
        time.sleep(delay)
        calls.append(len(regions))
        return real(base, regions)

    monkeypatch.setattr(routes, "count_subregions", slow)
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-m", "1", "--json", "--timing")
    assert code == 0
    wall_ms = {case: float(ms) for case, ms in json.loads(out)["wall_ms"].items()}
    firsts = {f"n={n},N={N},s={N % 2}" for n in (1, 2) for N in (2, 3)}
    assert len(calls) == 3 * len(firsts) and len(wall_ms) == 8
    for case, ms in wall_ms.items():
        if case in firsts:
            assert ms >= 3000 * delay, case
        else:
            assert ms < 1000 * delay, case


def test_empty_checks_are_usage_errors(capsys):
    for argv in (("verify", "--max-n", "0"), ("verify", "--max-m", "0"),
                 ("identities", "--count", "0"), ("identities", "--count", "-5"),
                 ("identities", "--suite", "halb", "--max-n", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "error" in err, argv
        assert "agree" not in out and '"ok": true' not in out


def test_arithmetic_error_is_an_internal_failure(capsys, monkeypatch):
    def broken(n, m, s):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(formulas, "even_case_count", broken)
    code, _, err = run(capsys, "count", "--n", "2", "--N", "4", "--s", "1")
    assert code == cli.EXIT_INTERNAL == 3
    assert "internal exactness failure" in err and "ZeroDivisionError" in err


def test_polydet_report(capsys):
    code, out, _ = run(capsys, "polydet", "--n", "2", "--s", "0")
    assert code == 0
    assert "degree 2" in out and "closed product match: ok" in out
    code, out, _ = run(capsys, "polydet", "--n", "1", "--s", "0")
    assert code == 0
    assert "degree 0" in out
    code, out, _ = run(capsys, "polydet", "--n", "4", "--s", "1", "--json")
    payload = json.loads(out)
    assert payload["ok"] and payload["degree"] == 9


@pytest.mark.parametrize("n", [0, -1])
def test_polydet_names_a_bad_n(capsys, n):
    # n is checked before s, whose range 0..n-1 is empty for such an n
    code, out, err = run(capsys, "polydet", "--n", str(n), "--s", "0")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and f"n={n}" in err and "s=" not in err
    assert "Traceback" not in err


def test_polydet_interpolates_once(capsys, monkeypatch):
    real = polyfactor.lower_det_polynomial
    calls = []

    def counted(n, s):
        calls.append((n, s))
        return real(n, s)

    monkeypatch.setattr(polyfactor, "lower_det_polynomial", counted)
    code, out, _ = run(capsys, "polydet", "--n", "4", "--s", "1", "--json")
    assert code == 0 and json.loads(out)["closed_product_ok"]
    assert calls == [(4, 1)]


def test_half_root_suite_evaluates_each_entry_once(capsys, monkeypatch):
    real = hyperid.lower_poly_entry
    calls = []

    def counted(n, m, s, i, j):
        calls.append((n, m, s, i, j))
        return real(n, m, s, i, j)

    monkeypatch.setattr(hyperid, "lower_poly_entry", counted)
    code, out, _ = run(capsys, "identities", "--suite", "halb", "--max-n", "7")
    assert code == 0
    assert json.loads(out)["suites"][0]["tuples_checked"] == 1088
    assert len(calls) == len(set(calls)) == 2180


def test_polydet_wrong_closed_product_exits_1(capsys, monkeypatch):
    real = polyfactor.closed_product_polynomial

    def plus_one(n, s):
        cs = real(n, s).coeffs
        return polyfactor.UniPoly.from_coeffs((cs[0] + 1,) + cs[1:])

    monkeypatch.setattr(polyfactor, "closed_product_polynomial", plus_one)
    code, out, _ = run(capsys, "polydet", "--n", "4", "--s", "1", "--json")
    payload = json.loads(out)
    assert code == 1
    assert payload["closed_product_ok"] is False and payload["ok"] is False
    assert payload["leading_coefficient_ok"] is True


def test_identities_json(capsys):
    code, out, _ = run(capsys, "identities", "--suite", "vandermonde", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["tuples_checked"] == 200


def test_identities_matrix_suites(capsys):
    code, out, _ = run(capsys, "identities", "--suite", "halb", "--max-n", "5")
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(capsys, "identities", "--suite", "ganz", "--max-n", "5")
    assert code == 0 and json.loads(out)["ok"]


def test_asymptotic_monotone(capsys):
    code, out, _ = run(capsys, "asymptotic", "--alpha", "2", "--beta", "2",
                       "--gamma", "1", "--t-list", "4,8,16")
    assert code == 0
    assert "relative error decreasing: yes" in out
    assert "0.27566" in out


def test_asymptotic_scale_invariant_limit(capsys):
    _, out1, _ = run(capsys, "asymptotic", "--alpha", "2", "--beta", "2",
                     "--gamma", "1", "--t-list", "4,8", "--json")
    _, out2, _ = run(capsys, "asymptotic", "--alpha", "4", "--beta", "4",
                     "--gamma", "2", "--t-list", "2,4", "--json")
    assert json.loads(out1)["limit"] == json.loads(out2)["limit"]
    assert json.loads(out1)["rows"][0]["ratio"] == json.loads(out2)["rows"][0]["ratio"]


def test_asymptotic_usage_error(capsys):
    code, _, err = run(capsys, "asymptotic", "--alpha", "2", "--beta", "2", "--gamma", "2")
    assert code == 2 and "gamma" in err


def test_asymptotic_odd_box_side_is_a_usage_error(capsys):
    # beta*t odd gives no even cut side 2m to compare
    code, out, err = run(capsys, "asymptotic", "--alpha", "2", "--beta", "1", "--gamma", "1",
                         "--t-list", "3,5")
    assert code == cli.EXIT_USAGE and out == ""
    assert "beta*t must be even" in err


def test_asymptotic_not_decreasing_exits_1(capsys):
    code, out, _ = run(capsys, "asymptotic", "--alpha", "2", "--beta", "2",
                       "--gamma", "1", "--t-list", "8,4")
    assert code == 1
    assert "relative error decreasing: NO" in out
    code, out, _ = run(capsys, "asymptotic", "--alpha", "2", "--beta", "2",
                       "--gamma", "1", "--t-list", "8,4", "--json")
    assert code == 1 and json.loads(out)["relative_error_decreasing"] is False


def test_asymptotic_single_scale_is_usage_error(capsys):
    for t_list in ("4", "32"):
        code, out, err = run(capsys, "asymptotic", "--alpha", "2", "--beta", "2",
                             "--gamma", "1", "--t-list", t_list, "--json")
        assert code == 2 and out == ""
        assert "at least two" in err


def test_render_writes_deterministic_svg(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", "--n", "3", "--N", "4", "--s", "2",
                     "--out", str(out_path))
    assert code == 0
    first = out_path.read_bytes()
    assert first.startswith(b"<svg")
    assert first.count(b'fill="#3d3d3d"') == 2  # the two removed triangles
    run(capsys, "render", "--n", "3", "--N", "4", "--s", "2", "--out", str(out_path))
    assert out_path.read_bytes() == first


def test_render_half_minus_marks_half_positions(tmp_path, capsys):
    out_path = tmp_path / "half.svg"
    code, _, _ = run(capsys, "render", "--n", "3", "--N", "4", "--s", "2",
                     "--half", "minus", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().count("dasharray") == 1


@pytest.mark.parametrize("half, digest", [
    ((), "143f01af94fe0e9edb926b74305af522a3915b07f4c0fcd6ae85d74cdba88bce"),
    (("--half", "minus"), "d61c7b9a3eadc8ae2f3299ebed6b1cad994e3ced515883db8d06fc8707c318fc"),
])
def test_render_svg_bytes_are_pinned(tmp_path, capsys, half, digest):
    # find_tiling's choice among the tilings, and so the picture, is fixed
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", "--n", "3", "--N", "4", "--s", "2", *half,
                     "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_render_exits_internal_when_a_stored_layer_is_lost(tmp_path, capsys, monkeypatch):
    # find_tiling stores one profile dict per step, each swept from the one
    # before; lose the one its trace reads first (before the last step) as
    # soon as the last step is built
    region = geometry.remove_axis_defect(geometry.HexSpec(3, 4, 2))
    last = len(geometry.dual_graph(region).verts) - 1
    real_sweep = matchcount._sweep
    calls = []

    def losing_sweep(steps, states=None):
        out = real_sweep(steps, states)
        if len(calls) == last:
            states.clear()
        calls.append(steps)
        return out

    monkeypatch.setattr(matchcount, "_sweep", losing_sweep)
    out_path = tmp_path / "fig.svg"
    code, out, err = run(capsys, "render", "--n", "3", "--N", "4", "--s", "2",
                         "--out", str(out_path))
    assert code == cli.EXIT_INTERNAL
    assert "no reachable predecessor" in err and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("target", ["missing/fig.svg", "."])
def test_render_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, target):
    code, out, err = run(capsys, "render", "--n", "2", "--N", "4", "--s", "1",
                         "--out", str(tmp_path / target))
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_render_single_rhombus_region():
    region = TriRegion(frozenset({up(0, 0), down(0, 0)}))
    svg = region_svg(region)
    assert svg.count("polygon") == 2


def test_render_untileable_warns(tmp_path, capsys):
    # odd-triangle regions cannot tile; exercise the warning path directly
    region = TriRegion(frozenset({up(0, 0)}))
    svg = region_svg(region)
    assert "polygon" in svg
    from hexcount.matchcount import find_tiling

    assert find_tiling(geometry.dual_graph(region)) is None
