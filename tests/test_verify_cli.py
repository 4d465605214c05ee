"""Tests for the verification suites and the command line front end."""

import json
import pickle

import pytest

from sfvs import verify_cli
from sfvs.addressing import FAMILIES
from sfvs.generators import sierpinski, sierpinski_plus
from sfvs.verify_cli import (
    SCHEMA_VERSION,
    SUITES,
    VerificationError,
    VerificationReport,
    _parse_values,
    main,
    render_json,
    render_table,
    run_suite,
)
from sfvs.triangle_forest import forest_order_recurrence


def strip_runtime(reports):
    return [
        (r.suite, r.family, r.p, r.n, r.check, r.predicted, r.constructed, r.exact, r.status)
        for r in reports
    ]


def sample_report(**overrides):
    base = dict(
        suite="counts",
        family="s",
        p=3,
        n=2,
        check="order",
        predicted=9,
        constructed=9,
        exact=None,
        status="match",
        runtime_ms=1,
    )
    base.update(overrides)
    return VerificationReport(**base)


# suites


def test_tau_formula_suite_grid():
    reports = run_suite("thm2.4", [2, 3], [1, 2, 3])
    assert len(reports) == 6
    assert all(r.status == "match" for r in reports)
    assert all(r.check == "tau" for r in reports)
    assert [r.predicted for r in reports] == [0, 0, 0, 1, 3, 9]
    assert [(r.p, r.n) for r in reports] == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


def test_counts_suite_covers_every_family():
    reports = run_suite("counts", [3], [2])
    assert len(reports) == 8
    assert {(r.family, r.check) for r in reports} == {
        (fam, check)
        for fam in ("s", "plus", "pp", "hat")
        for check in ("order", "size")
    }
    hat_order = next(r for r in reports if r.family == "hat" and r.check == "order")
    assert (hat_order.predicted, hat_order.constructed) == (15, 15)
    assert hat_order.status == "match"


def test_apex_formula_suite_with_solver():
    reports = run_suite("cor2.7", [2, 3], [2], exact=True)
    assert strip_runtime(reports) == [
        ("cor2.7", "plus", 2, 2, "tau", 1, 1, 1, "match"),
        ("cor2.7", "plus", 3, 2, "tau", 3, 3, 3, "match"),
    ]


def test_extra_copy_formula_suite_with_solver():
    reports = run_suite("cor2.8", [3], [2], exact=True)
    assert strip_runtime(reports) == [
        ("cor2.8", "pp", 3, 2, "tau", 4, 4, 4, "match"),
    ]


def test_triangle3_suite():
    reports = run_suite("thm3.2", [3], [0, 1, 2], exact=True)
    assert [r.predicted for r in reports] == [1, 2, 5]
    assert all(r.status == "match" for r in reports)
    assert all(r.exact == r.predicted for r in reports)


def test_linear_forest_suite_checks():
    reports = run_suite("thm4.1", [4], [3])
    assert [r.check for r in reports] == ["order", "recurrence", "structure"]
    assert all(r.status == "match" for r in reports)
    assert reports[0].predicted == 65


def test_conjecture_suite_is_bound_only_without_solver():
    reports = run_suite("conjecture", [4], [2])
    (row,) = reports
    assert row.check == "forest"
    assert row.predicted == 18
    assert row.constructed == 18
    assert row.exact is None
    assert row.status == "bound-only"


def test_conjecture_suite_with_solver():
    (row,) = run_suite("conjecture", [4], [2], exact=True)
    assert row.exact == 18
    assert row.status == "match"
    rows = run_suite("conjecture", [5, 6, 7], [2], exact=True)
    assert [row.p for row in rows] == [5, 6, 7]
    for row in rows:
        assert row.exact == row.constructed
        assert row.status == "match"


def test_parallel_runs_match_serial():
    serial = run_suite("counts", [3], [1, 2])
    parallel = run_suite("counts", [3], [1, 2], jobs=2)
    assert strip_runtime(serial) == strip_runtime(parallel)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for the worker pool on a 4-CPU machine: record each pool's
    max_workers and map in this process, so no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify_cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify_cli.os, "cpu_count", lambda: 4)
    return sizes


@pytest.mark.parametrize(
    "suite,jobs,sizes",
    [
        ("counts", 100_000, [4]),  # 8 instances, capped at the CPU count
        ("counts", 3, [3]),
        ("thm2.4", 100_000, [2]),  # capped at the 2 instances
        ("counts", 1, []),  # one worker runs in this process
    ],
)
def test_jobs_are_capped(pool_sizes, suite, jobs, sizes):
    rows = run_suite(suite, [3], [1, 2], jobs=jobs)
    assert pool_sizes == sizes
    assert strip_runtime(rows) == strip_runtime(run_suite(suite, [3], [1, 2]))


def test_jobs_without_a_cpu_count_run_in_process(pool_sizes, monkeypatch):
    monkeypatch.setattr(verify_cli.os, "cpu_count", lambda: None)
    run_suite("counts", [3], [1, 2], jobs=8)
    assert pool_sizes == []


def test_cli_verify_caps_and_checks_jobs(pool_sizes, capsys):
    argv = ["verify", "--suite", "counts", "-p", "3", "-n", "1:2", "--jobs"]
    assert main(argv + ["100000"]) == 0
    assert pool_sizes == [4]
    capsys.readouterr()
    for bad in ("0", "-3"):
        assert main(argv + [bad]) == 2
        assert capsys.readouterr().err == f"error: jobs must be at least 1, got {bad}\n"
    assert pool_sizes == [4]


@pytest.fixture
def no_builds(monkeypatch):
    """Make every build reachable from the verbs and suites fail fast."""

    def refuse(*args, **kwargs):
        raise AssertionError("built an instance the size guard should refuse")

    for family in FAMILIES:
        monkeypatch.setitem(verify_cli._BUILDERS, family, refuse)
    for name in ("triangle", "structure_report", "conjecture_gap"):
        monkeypatch.setattr(verify_cli, name, refuse)


@pytest.mark.parametrize("verb", [["generate"], ["forest"], ["forest", "--structure"], ["tau"]])
@pytest.mark.parametrize(
    "p,n,order", [("10", "7", "50,000,005"), ("2", "1000000000", "more than 1,000,000")]
)
def test_cli_refuses_oversized_instances(no_builds, capsys, verb, p, n, order):
    assert main([verb[0], "--family", "hat", "-p", p, "-n", n, *verb[1:]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: hat p={p} n={n} has {order} vertices, the limit is 1,000,000\n"


@pytest.mark.parametrize("verb", ["generate", "forest", "tau"])
@pytest.mark.parametrize("family", ["s", "plus", "pp"])
def test_cli_refuses_runaway_levels_at_one_symbol(no_builds, capsys, verb, family):
    assert main([verb, "--family", family, "-p", "1", "-n", "1000000000"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {family} p=1 n=1000000000 is above the level limit of 20\n"


def test_cli_builds_one_symbol_graphs_up_to_the_level_limit(capsys):
    assert sierpinski(1, 4).order == 1
    assert main(["generate", "--family", "s", "-p", "1", "-n", "20"]) == 0
    assert capsys.readouterr().out == "0" * 20 + "\n"


@pytest.mark.parametrize(
    "suite,ps,ns,message",
    [
        ("counts", [3, 10], [7], "s p=10 n=7 has 10,000,000 vertices"),
        ("thm4.1", [4], [5, 10**9], "hat p=4 n=1000000000 has more than 1,000,000 vertices"),
        ("conjecture", [2000], [2], "hat p=2000 n=2 has 4,000,001,000 vertices"),
    ],
)
def test_run_suite_refuses_oversized_instances(no_builds, suite, ps, ns, message):
    with pytest.raises(ValueError, match=message):
        run_suite(suite, ps, ns)


@pytest.mark.parametrize(
    "suite,ps,ns",
    [
        ("counts", [1], [1]),
        ("counts", [2], [0]),
        ("thm2.4", [2], [0]),
        ("cor2.7", [3], [1]),
        ("cor2.8", [3], [1]),
        ("thm3.2", [4], [1]),
        ("thm3.2", [3], [-1]),
        ("thm4.1", [3], [3]),
        ("thm4.1", [4], [2]),
        ("conjecture", [3], [2]),
        ("nope", [3], [2]),
    ],
)
def test_suite_parameter_validation(suite, ps, ns):
    with pytest.raises(ValueError):
        run_suite(suite, ps, ns)


def test_suite_list_is_stable():
    assert SUITES == (
        "counts",
        "thm2.4",
        "cor2.7",
        "cor2.8",
        "thm3.2",
        "thm4.1",
        "conjecture",
    )


# rendering


def test_render_table_empty():
    assert render_table([]) == ""


def test_render_table_glyphs_and_columns():
    rows = [
        sample_report(),
        sample_report(check="size", predicted=12, constructed=13, status="mismatch"),
        sample_report(exact=None, status="bound-only"),
    ]
    text = render_table(rows)
    assert "✓" in text and "✗" in text and "∙" in text
    header = text.splitlines()[0]
    for column in ("suite", "family", "p", "n", "check", "status", "ms"):
        assert column in header
    assert " - " in text  # missing exact renders as a dash


def test_render_json_round_trip():
    rows = [sample_report()]
    payload = json.loads(render_json(rows))
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["reports"] == [
        {
            "suite": "counts",
            "family": "s",
            "p": 3,
            "n": 2,
            "check": "order",
            "predicted": 9,
            "constructed": 9,
            "exact": None,
            "status": "match",
            "runtime_ms": 1,
        }
    ]


# value parsing


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", [3]),
        ("2,5", [2, 5]),
        ("4:6", [4, 5, 6]),
        ("2,4:6", [2, 4, 5, 6]),
        ("5,5,5", [5]),
    ],
)
def test_parse_values(text, expected):
    assert _parse_values(text) == expected


@pytest.mark.parametrize("bad", ["", "2,,3", "6:4", "x", "1:b"])
def test_parse_values_rejects(bad):
    with pytest.raises(ValueError):
        _parse_values(bad)


def test_parse_values_refuses_unbounded_ranges(capsys):
    with pytest.raises(ValueError, match="more than 1,000,000 values"):
        _parse_values("1:1000001")
    assert main(["verify", "--suite", "counts", "-p", "2", "-n", "1:1000001"]) == 2
    assert capsys.readouterr().err == "error: range '1:1000001' has more than 1,000,000 values\n"


# errors


def test_verification_error_pickles():
    err = VerificationError("broken", cycle=["a", "b", "c", "a"])
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, VerificationError)
    assert clone.cycle == ["a", "b", "c", "a"]
    assert "broken" in str(clone)


# command line


def test_cli_generate_edges(capsys):
    assert main(["generate", "--family", "s", "-p", "2", "-n", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "00\t01" in lines
    assert len(lines) == 3  # the level-2 path has three edges


def test_cli_generate_dot(capsys):
    assert main(["generate", "--family", "hat", "-p", "3", "-n", "0", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert '"^0" -- "^1"' in out


def test_cli_forest_reports_size(capsys):
    assert main(["forest", "--family", "hat", "-p", "4", "-n", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "size=18 complement=16 acyclic=true"
    assert len(out) == 19


def test_cli_forest_structure_json(capsys):
    assert main(["forest", "--family", "hat", "-p", "4", "-n", "3", "--structure"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["total"] == 65
    assert payload["actual_paths"] == [[17, 2], [31, 1]]


def test_cli_forest_structure_rejects_other_families(capsys):
    assert main(["forest", "--family", "s", "-p", "3", "-n", "2", "--structure"]) == 2
    assert "hat" in capsys.readouterr().err


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
def test_cli_forest_structure_rejects_small_instances(capsys, p, n):
    argv = ["forest", "--family", "hat", "-p", str(p), "-n", str(n), "--structure"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --structure needs p >= 4 and n >= 2, got ({p},{n})\n"


# one (family, p) per branch of the construction-backed forest, all at n = 2,
# with the feedback number its suite predicts (None where tau is open)
FOREST_CASES = [
    ("s", 4, 4 * (4 - 2)),  # thm2.4: p^(n-1) (p-2)
    ("plus", 4, 4 * (4 - 2)),  # cor2.7: same value
    ("pp", 4, (4 - 2) * (4 + 1)),  # cor2.8: p^(n-2) (p-2) (p+1)
    ("hat", 2, 0),  # the p = 2 quotient is a path
    ("hat", 3, (3**2 + 1) // 2),  # thm3.2: (3^n + 1) / 2
    ("hat", 5, None),  # p >= 4: the linear forest, whose order follows the recurrence
]


@pytest.mark.parametrize("family,p,tau", FOREST_CASES)
def test_cli_forest_every_construction(capsys, family, p, tau):
    assert main(["forest", "--family", family, "-p", str(p), "-n", "2"]) == 0
    *labels, summary = capsys.readouterr().out.strip().splitlines()
    fields = dict(item.split("=") for item in summary.split())
    assert fields["acyclic"] == "true"
    assert int(fields["size"]) == len(set(labels)) == len(labels)
    if tau is None:
        assert int(fields["size"]) == forest_order_recurrence(p, 2)
    else:
        assert int(fields["complement"]) == tau


# hat(4,2) and hat(5,2) both take the p >= 4 branch; both are kept
@pytest.mark.parametrize(
    "family,p", [(family, p) for family, p, _ in FOREST_CASES] + [("hat", 4)]
)
def test_cli_tau_seeded_matches_unseeded(capsys, family, p):
    results = []
    for seed in ("auto", "none"):
        assert main(["tau", "--family", family, "-p", str(p), "-n", "2", "--seed", seed]) == 0
        tau, optimal, _ = capsys.readouterr().out.split()
        assert optimal == "optimal=true"
        results.append(tau)
    assert results[0] == results[1]


def test_cli_tau(capsys):
    assert main(["tau", "--family", "hat", "-p", "4", "-n", "1"]) == 0
    assert capsys.readouterr().out.startswith("tau=4 optimal=true witness=")
    assert main(["tau", "--family", "s", "-p", "3", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tau=9 optimal=true witness=")
    witness = out.strip().split("witness=")[1].split(",")
    assert len(witness) == 9
    assert all(len(w) == 3 for w in witness)


def test_cli_tau_brute(capsys):
    assert main(["tau", "--family", "s", "-p", "3", "-n", "2", "--method", "brute"]) == 0
    assert capsys.readouterr().out.startswith("tau=3 optimal=true")


def test_cli_verify_table(capsys):
    assert main(["verify", "--suite", "thm2.4", "-p", "3", "-n", "1:2"]) == 0
    out = capsys.readouterr().out
    assert out.count("✓") == 2
    assert "thm2.4" in out


def test_cli_verify_json_and_report_round_trip(tmp_path, capsys):
    path = tmp_path / "run.json"
    code = main(
        [
            "verify",
            "--suite",
            "counts",
            "-p",
            "3",
            "-n",
            "1",
            "--format",
            "json",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert main(["report", str(path)]) == 0
    assert "✓" in capsys.readouterr().out


def test_cli_report_flags_mismatch(tmp_path, capsys):
    bad = sample_report(constructed=10, status="mismatch")
    path = tmp_path / "bad.json"
    path.write_text(render_json([bad]), encoding="utf-8")
    assert main(["report", str(path)]) == 1
    assert "✗" in capsys.readouterr().out


def test_cli_report_rejects_wrong_schema(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": 99, "reports": []}), encoding="utf-8")
    assert main(["report", str(path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_report_rejects_malformed_entries(tmp_path, capsys):
    path = tmp_path / "trash.json"
    path.write_text(
        json.dumps({"schema": SCHEMA_VERSION, "reports": [{"suite": "counts"}]}),
        encoding="utf-8",
    )
    assert main(["report", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "field,value",
    [
        ("status", "weird"),
        ("status", ["match"]),
        ("suite", "thm9.9"),
        ("family", "q"),
        ("check", 3),
        ("p", "3"),
        ("n", 2.0),
        ("runtime_ms", None),
        ("predicted", True),
        ("exact", "9"),
    ],
)
def test_cli_report_rejects_invalid_fields(tmp_path, capsys, field, value, fmt):
    path = tmp_path / "odd.json"
    path.write_text(render_json([sample_report(**{field: value})]), encoding="utf-8")
    assert main(["report", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: malformed report entries\n"


def test_cli_report_missing_file(capsys):
    assert main(["report", "/no/such/file.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_verify_rejects_bad_grid(capsys):
    assert main(["verify", "--suite", "thm4.1", "-p", "3", "-n", "3"]) == 2
    assert "thm4.1" in capsys.readouterr().err


def test_cor28_rows_build_each_pp_graph_once(monkeypatch):
    from sfvs import pairable_forest

    builds = []
    real = verify_cli._BUILDERS["pp"]

    def spy(p, n):
        builds.append((p, n))
        return real(p, n)

    monkeypatch.setitem(verify_cli._BUILDERS, "pp", spy)
    monkeypatch.setattr(pairable_forest, "sierpinski_plusplus", spy)
    rows = run_suite("cor2.8", [3, 4], [2, 3])
    assert [r.status for r in rows] == ["match"] * 4
    assert sorted(builds) == [(3, 2), (3, 3), (4, 2), (4, 3)]


def test_thm41_rows_build_each_hat_forest_once(monkeypatch):
    from sfvs import triangle_forest

    builds = []
    real = triangle_forest._checked_forest

    def spy(p, n, graph):
        builds.append((p, n))
        return real(p, n, graph)

    monkeypatch.setattr(triangle_forest, "_checked_forest", spy)
    rows = run_suite("thm4.1", [4, 5], [3])
    assert [r.status for r in rows] == ["match"] * 6
    assert sorted(builds) == [(4, 3), (5, 3)]


def test_thm41_rejects_a_forest_with_a_cycle(monkeypatch, capsys):
    from sfvs import triangle_forest
    from sfvs.addressing import hat_labels

    # the top vertex joining corners 0 and 2 is what the construction
    # removes to break the corner-to-corner cycle; put it back
    real = triangle_forest._linear_forest
    monkeypatch.setattr(
        triangle_forest,
        "_linear_forest",
        lambda p, n: real(p, n) | {hat_labels(p, n).index(":{0,2}")},
    )
    with pytest.raises(VerificationError, match="construction induced a cycle"):
        run_suite("thm4.1", [4], [3])
    assert main(["verify", "--suite", "thm4.1", "-p", "4", "-n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hat p=4 n=3: construction induced a cycle: [")


def test_cli_tau_fails_on_a_broken_construction(monkeypatch, capsys):
    from sfvs import triangle_forest
    from sfvs.addressing import hat_labels

    # put back the top vertex the construction removes to break a cycle:
    # the seeded search must not drop the seed and go on unseeded
    real = triangle_forest._linear_forest
    monkeypatch.setattr(
        triangle_forest,
        "_linear_forest",
        lambda p, n: real(p, n) | {hat_labels(p, n).index(":{0,2}")},
    )
    assert main(["tau", "--family", "hat", "-p", "4", "-n", "2", "--budget", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: construction induced a cycle: [")
    assert captured.err.count("\n") == 1


# each broken construction leaves every vertex of its graph in the forest,
# and each graph holds a triangle
_CYCLIC_CONSTRUCTIONS = {
    "s": ("forest_sierpinski", lambda p, n: set(sierpinski(p, n).vertices()), "thm2.4"),
    "plus": ("forest_plus", lambda p, n: set(sierpinski_plus(p, n).vertices()), "cor2.7"),
    "hat": ("fvs_triangle3", lambda n: set(), "thm3.2"),
}


@pytest.mark.parametrize("verb", ["forest", "tau", "verify"])
@pytest.mark.parametrize("family", ["s", "plus", "hat"])
def test_cli_fails_on_a_construction_that_closes_a_cycle(monkeypatch, capsys, family, verb):
    name, broken, suite = _CYCLIC_CONSTRUCTIONS[family]
    monkeypatch.setattr(verify_cli, name, broken)
    if verb == "verify":
        argv = ["verify", "--suite", suite, "-p", "3", "-n", "2"]
    else:
        argv = [verb, "--family", family, "-p", "3", "-n", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: construction induced a cycle: [")
    assert captured.err.count("\n") == 1


def test_cli_tau_searches_unseeded_without_a_construction(monkeypatch, capsys):
    from sfvs import verify_cli

    seeds = []
    real = verify_cli.tau_bnb

    def spy(g, budget=None, seed=None):
        seeds.append(seed)
        return real(g, budget=budget, seed=seed)

    monkeypatch.setattr(verify_cli, "tau_bnb", spy)
    assert main(["tau", "--family", "plus", "-p", "3", "-n", "1"]) == 0
    assert capsys.readouterr().out.startswith("tau=2 optimal=true witness=")
    assert seeds == [None]


@pytest.mark.parametrize(
    "argv,passes",
    [
        (["verify", "--suite", "cor2.8", "-p", "4", "-n", "3"], 1),
        (["verify", "--suite", "cor2.8", "-p", "4", "-n", "3", "--exact"], 2),
        (["verify", "--suite", "thm2.4", "-p", "4", "-n", "3", "--exact"], 2),
        (["verify", "--suite", "conjecture", "-p", "4", "-n", "2", "--exact"], 2),
        (["forest", "--family", "pp", "-p", "4", "-n", "3"], 1),
        (["forest", "--family", "hat", "-p", "4", "-n", "3"], 1),
        (["tau", "--family", "hat", "-p", "4", "-n", "2"], 2),
        (["tau", "--family", "s", "-p", "4", "-n", "2"], 2),
        (["forest", "--family", "pp", "-p", "2", "-n", "3"], 1),
    ],
)
def test_each_forest_is_checked_once(monkeypatch, capsys, argv, passes):
    # one cycle search for the construction's forest, and one more for
    # the solver's certificate when the command solves
    from sfvs import exact_fvs, graph_core

    calls = []
    real = graph_core._cycle

    def spy(g, keep, mark):
        calls.append(len(keep))
        return real(g, keep, mark)

    for module in (graph_core, exact_fvs):
        monkeypatch.setattr(module, "_cycle", spy)
    assert main(argv) == 0
    assert "✗" not in capsys.readouterr().out
    assert len(calls) == passes


@pytest.mark.parametrize("suite,p,n", [("thm2.4", 4, 3), ("conjecture", 4, 2)])
def test_run_suite_rejects_a_bad_budget_before_any_build(no_builds, monkeypatch, suite, p, n):
    with pytest.raises(ValueError, match="^budget must be positive, got 0$"):
        run_suite(suite, [p], [n], exact=True, budget=0)
    monkeypatch.setenv("SFVS_BUDGET", "abc")
    with pytest.raises(ValueError, match="^SFVS_BUDGET must be an integer, got 'abc'$"):
        run_suite(suite, [p], [n], exact=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--family", "hat", "-p", "6", "-n", "4", "--budget", "0"],
        ["verify", "--suite", "cor2.8", "-p", "4", "-n", "3", "--exact", "--budget", "0"],
    ],
)
def test_cli_rejects_a_bad_budget_before_any_build(no_builds, monkeypatch, capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: budget must be positive, got 0\n"
    monkeypatch.setenv("SFVS_BUDGET", "abc")
    assert main(argv[:-2]) == 2
    assert capsys.readouterr().err == "error: SFVS_BUDGET must be an integer, got 'abc'\n"


def test_budget_is_unchecked_without_a_solve(capsys):
    # only a solve reads the budget: a suite without --exact and the
    # brute-force method still run
    assert run_suite("thm2.4", [3], [2], budget=0)[0].status == "match"
    assert main(["tau", "--family", "s", "-p", "3", "-n", "2", "--method", "brute", "--budget", "0"]) == 0
    assert capsys.readouterr().out.startswith("tau=3 optimal=true")
