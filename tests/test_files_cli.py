import inspect
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import ramsey_pm
from ramsey_pm import core_ramsey, files, pm_ramsey, reproduce, results, search
from ramsey_pm.cli import build_parser, main, parse_targets
from ramsey_pm.coloring import EdgeColoring, layered_coloring, mono_pm_profile
from ramsey_pm.core_ramsey import BlockCover, exact_core_ramsey
from ramsey_pm.graphs import mask_of
from ramsey_pm.path_matching import DeficiencyCertificate
from ramsey_pm.pm_ramsey import clear_core_cache, exact_pm_ramsey, find_lower_witness
from ramsey_pm.results import BudgetExceededError, RouteDisagreementError

from conftest import SteppingClock, random_graph


def test_parse_targets():
    assert parse_targets("5,5,5") == [5, 5, 5]
    assert parse_targets("6*10") == [6] * 10
    assert parse_targets("6*3,5") == [6, 6, 6, 5]
    for bad in ("", "5,5*-1", "6*0,4"):
        with pytest.raises(ValueError):
            parse_targets(bad)


def test_coloring_text_roundtrip(rng):
    for _ in range(30):
        n = rng.randint(1, 10)
        r = rng.randint(1, 5)
        colors = tuple(rng.randint(1, r) for _ in range(n * (n - 1) // 2))
        col = EdgeColoring(n, r, colors)
        again = files.coloring_from_text(files.coloring_to_text(col))
        assert again == col


def test_coloring_text_format_is_one_indexed():
    col = layered_coloring([2, 1])
    text = files.coloring_to_text(col)
    assert text.splitlines()[0] == "3 2"
    assert text.splitlines()[1] == "1 2"  # colors of (1,2) and (1,3)


def test_graph_text_roundtrip(rng):
    for _ in range(30):
        g = random_graph(rng.randint(1, 12), rng)
        again = files.graph_from_text(files.graph_to_text(g))
        assert again == g


def test_cover_json_roundtrip():
    res = exact_core_ramsey((5, 5, 5))
    cover = res.lower_witness
    again = files.cover_from_json(files.cover_to_json(cover))
    assert again == cover
    payload = files.cover_to_json(cover)
    assert set(payload) == {"n", "capacities", "blocks"}
    assert all(min(b) >= 1 for b in payload["blocks"] if b)


def test_result_json_roundtrip():
    res = exact_pm_ramsey((4, 4, 4))
    again = json.loads(json.dumps(files.result_to_json(res)))
    assert (again["targets"], again["value"], again["method"]) == \
        (list(res.targets), res.value, res.method)
    assert files.witness_from_json(again["witness"]) == res.lower_witness


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = files.ResultCache(path)
    cache.put(files.cache_key("PM", (5, 5, 5)), 7, "closed-form")
    cache.put(files.cache_key("1C", (5, 5, 5)), 7, "exhaustive-search")
    reloaded = files.ResultCache(path)
    assert reloaded.get("PM:5,5,5")["value"] == 7
    assert reloaded.get("1C:5,5,5")["value"] == 7
    assert reloaded.get("PM:9,9") is None


def test_cache_file_is_one_compact_line(tmp_path, capsys):
    path = tmp_path / "cache.json"
    assert main(["exact", "pm", "--targets", "6*10", "--cache", str(path)]) == 0
    capsys.readouterr()
    cache = files.ResultCache(str(path))
    cache.put("C:9/5", 5, "exhaustive-search")
    text = path.read_text()
    assert len(text.splitlines()) == 1 and ", " not in text and ": " not in text
    assert files.ResultCache(str(path)).entries == cache.entries
    assert set(cache.entries) == {"PM:6,6,6,6,6,6,6,6,6,6", "C:9/5"}


def test_cache_keeps_entries_of_another_instance(tmp_path, capsys):
    # two CLI processes hold their own ResultCache on one file
    path = str(tmp_path / "cache.json")
    a, b = files.ResultCache(path), files.ResultCache(path)
    a.put("PM:5,5,5", 7, "closed-form")
    b.put("1C:4,4,4", 5, "exhaustive-search")
    reloaded = files.ResultCache(path)
    assert reloaded.get("PM:5,5,5")["value"] == 7
    assert reloaded.get("1C:4,4,4")["value"] == 5
    # a file that turned into something else meanwhile is still never written
    (tmp_path / "cache.json").write_text("[1, 2]")
    a.put("C:9/5", 5, "exhaustive-search")
    assert (tmp_path / "cache.json").read_text() == "[1, 2]"
    assert "warning" in capsys.readouterr().err


def test_cache_concurrent_processes_keep_every_entry(tmp_path):
    # more writer processes than cores, each recording its own keys
    path = str(tmp_path / "cache.json")
    script = ("import sys\n"
              "from ramsey_pm.files import ResultCache\n"
              "cache = ResultCache(sys.argv[1])\n"
              "for i in range(10):\n"
              "    cache.put(f'C:{sys.argv[2]}/{i}', i, 'exhaustive-search')\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(files.__file__)))
    writers = [subprocess.Popen([sys.executable, "-c", script, path, str(w)], env=env)
               for w in range(4)]
    for proc in writers:
        assert proc.wait(timeout=60) == 0
    assert len(files.ResultCache(path).entries) == 40


def test_cache_hit_does_not_change_value(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    assert main(["exact", "pm", "--targets", "5,5,5", "--cache", path]) == 0
    first = capsys.readouterr().out
    assert "value: 7" in first
    assert main(["exact", "pm", "--targets", "5,5,5", "--cache", path]) == 0
    second = capsys.readouterr().out
    assert "value: 7" in second and "cached" in second
    # recompute and compare against the cached answer
    fresh = exact_pm_ramsey((5, 5, 5)).value
    assert fresh == 7


def test_cache_answers_only_auto_requests(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    exact = ["exact", "pm", "--targets", "4,4,4", "--cache", path, "--json"]
    assert main(exact + ["--strategy", "formula"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "closed-form"
    # a named route runs even when the value is cached
    assert main(exact + ["--strategy", "search"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "exhaustive-search" and "cached" not in out
    assert out["stats"]["nodes"] > 0
    assert main(exact) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cached"] is True and out["value"] == 6


def test_exact_core_rejects_a_named_strategy(tmp_path, private_cache, capsys):
    # the 1-core value has one route, so a named strategy is a usage error
    # that runs no search and writes no cache entry
    for strategy in ("search", "reduction", "formula"):
        code = main(["exact", "core", "--targets", "4,4,4", "--strategy", strategy,
                     "--no-cache", "--json"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and "--strategy" in err, strategy
    assert not (tmp_path / "cache.json").exists()
    assert main(["exact", "core", "--targets", "4,4,4", "--strategy", "auto",
                 "--no-cache", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 5


def test_corrupt_cache_runs_uncached(tmp_path, capsys):
    path = tmp_path / "cache.json"
    for text in ("{", "[1, 2]"):
        path.write_text(text)
        assert main(["exact", "core", "--targets", "4,4,4", "--cache", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "value: 5" in out and "cached" not in out
        assert "warning" in err
        assert path.read_text() == text


def test_cli_exact_core_json(tmp_path, capsys):
    code = main(["exact", "core", "--targets", "4,4,4", "--cache", "none", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 5
    assert payload["witness"]["type"] == "cover"


def test_cli_exact_core_verbose_reports_progress(monkeypatch, capsys):
    monkeypatch.setattr(results, "time", SteppingClock())
    code = main(["exact", "core", "--targets", "5,5,5", "--cache", "none", "--verbose"])
    assert code == 0
    out, err = capsys.readouterr()
    assert "value: 7" in out
    assert "progress:" in err


def test_cli_exact_pm_reduction_verbose_reports_cover_progress(monkeypatch, capsys):
    # the hook reaches the cover searches behind the reduction's 1-core values
    clear_core_cache()
    monkeypatch.setattr(results, "time", SteppingClock())
    code = main(["exact", "pm", "--targets", "6*10", "--strategy", "reduction",
                 "--cache", "none", "--verbose"])
    clear_core_cache()
    assert code == 0
    out, err = capsys.readouterr()
    assert "value: 16" in out
    assert "progress:" in err


def test_cli_bounds_json(capsys):
    assert main(["bounds", "--targets", "6*10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entries = {e["name"]: e["value"] for e in payload["PM"]}
    assert entries["standard-lower"] == 15
    assert entries["design-lower"] == 16
    assert entries["upper"] == 21


def test_cli_witness_writes_parseable_file(tmp_path, capsys):
    out = str(tmp_path / "w.coloring")
    assert main(["witness", "pm", "--targets", "5,5,5", "-n", "6", "-o", out]) == 0
    with open(out) as fh:
        col = files.coloring_from_text(fh.read())
    assert col.n == 6 and col.r == 3

    out2 = str(tmp_path / "w.cover")
    assert main(["witness", "core", "--targets", "5,5,5", "-n", "6", "-o", out2]) == 0
    with open(out2) as fh:
        cover = files.cover_from_json(json.load(fh))
    cover.validate()
    assert cover.n == 6


def test_cli_witness_below_one_vertex_exits_1(capsys):
    for n in ("0", "-4"):
        assert main(["witness", "pm", "--targets", "3,3", "-n", n]) == 1, n
        captured = capsys.readouterr()
        assert captured.out == "" and "need n >= 1" in captured.err, n


def test_cli_deficiency(tmp_path, capsys):
    path = str(tmp_path / "g.graph")
    with open(path, "w") as fh:
        fh.write("5\n1 2\n1 3\n1 4\n1 5\n")
    assert main(["deficiency", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deficiency"] == 2
    assert payload["max_path_matching_order"] == 3
    assert payload["lv_set"] == [1]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["exact", "pm", "--targets", "bogus", "--cache", "none"]) == 1
    capsys.readouterr()
    # argparse's own exits: 0 after --help, 1 (not its 2) after a usage error
    for argv in (["--help"], ["exact", "--help"]):
        assert main(argv) == 0, argv
        assert "usage:" in capsys.readouterr().out, argv
    assert main(["exact", "pm"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "error:" in captured.err and "--targets" in captured.err
    # a repeat count below 1 is an error, not a dropped chunk
    assert main(["exact", "pm", "--targets", "5,5*-1", "--cache", "none"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "repeat count" in captured.err
    code = main(["exact", "core", "--targets", "6,6,6,6", "--cache", "none",
                 "--node-budget", "3"])
    assert code == 2
    capsys.readouterr()


def test_cli_non_positive_budgets_exit_1(capsys):
    # a budget of zero or less is a usage error, never "unlimited"
    for flag in ("--time-budget", "--node-budget"):
        for value in ("0", "-1"):
            assert main(["exact", "core", "--targets", "5*10", "--cache", "none",
                         flag, value]) == 1, (flag, value)
            assert "must be positive" in capsys.readouterr().err
    assert main(["exact", "core", "--targets", "5*10", "--cache", "none",
                 "--time-budget", "nan"]) == 1
    capsys.readouterr()


def test_cli_exact_pm_with_a_25_vertex_witness(capsys):
    assert main(["exact", "pm", "--targets", "26,3", "--no-cache", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 26


def test_rejected_witness_exits_3_without_a_coloring_search(monkeypatch, capsys):
    # a value whose constructed witnesses all fail re-validation has no
    # lower certificate; nothing falls back to searching colorings
    def no_search(*args, **kw):
        raise AssertionError("a coloring search ran")
    monkeypatch.setattr(pm_ramsey, "_witness_valid", lambda col, n, ts: False)
    monkeypatch.setattr(pm_ramsey, "verify_upper", no_search)
    monkeypatch.setattr(pm_ramsey, "enumerate_colorings", no_search)
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((5, 5, 5))
    assert err.value.details == {"targets": (5, 5, 5), "value": 7}
    assert main(["exact", "pm", "--targets", "5,5,5", "--cache", "none"]) == 3
    capsys.readouterr()


def test_exact_pm_witnesses_beyond_64_vertices(capsys):
    # closed forms give 133, 66 and 13; each witness, on up to 132
    # vertices or with 70 colors, is re-validated and printed
    for targets, value, r in (("100,100", 133, 2), ("66,3", 66, 2), ("3*70", 13, 70)):
        assert main(["exact", "pm", "--targets", targets, "--cache", "none", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        col = files.witness_from_json(out["witness"])
        assert out["value"] == value and (col.n, col.r) == (value - 1, r), targets
        assert all(q < p for q, p in zip(mono_pm_profile(col), out["targets"])), targets


def test_cli_witness_pm_beyond_64_vertices(private_cache, capsys):
    # (100,100) has the value 133: every N below it restricts the witness
    # on K_132, and N = 133 names the value
    for n in (5, 132):
        assert main(["witness", "pm", "--targets", "100,100", "-n", str(n)]) == 0
        col = files.coloring_from_text(capsys.readouterr().out)
        assert col.n == n and all(q < 100 for q in mono_pm_profile(col)), n
    assert main(["witness", "pm", "--targets", "100,100", "-n", "133"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "the value is 133" in captured.err


def test_exact_core_beyond_64_vertices(capsys):
    # one block of 99 swallows K_99 and the bounds give 100, so no cover
    # search runs; (100,100,100) bisects with cover searches up to K_149
    for targets, value, nodes in (("100,100", 100, 0), ("100,100,100", 149, 848)):
        assert main(["exact", "core", "--targets", targets, "--cache", "none", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        cover = files.witness_from_json(out["witness"])
        cover.validate()
        assert (out["value"], out["stats"]["nodes"], cover.n) == (value, nodes, value - 1)
        assert cover.capacities == tuple(p - 1 for p in out["targets"]), targets


def test_cli_witness_core_beyond_64_vertices(private_cache, capsys):
    # the value 149 of (100,100,100) comes with a cover of K_148
    assert main(["witness", "core", "--targets", "100,100,100", "-n", "148"]) == 0
    cover = files.cover_from_json(json.loads(capsys.readouterr().out))
    cover.validate()
    assert (cover.n, cover.capacities) == (148, (99, 99, 99))


def test_cli_deficiency_of_a_120_vertex_graph(tmp_path, capsys):
    # 20 disjoint K_{1,5}: a path-matching covers at most 3 vertices of a
    # star, so pd = 20 * 3; the centres are the LV set
    path = tmp_path / "stars.graph"
    path.write_text("120\n" + "".join(f"{6 * k + 1} {6 * k + 1 + j}\n"
                                      for k in range(20) for j in range(1, 6)))
    assert main(["deficiency", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["deficiency"], out["max_path_matching_order"]) == (120, 60, 60)
    assert out["lv_set"] == [6 * k + 1 for k in range(20)]
    cert = DeficiencyCertificate(mask_of(v - 1 for v in out["lv_set"]), out["deficiency"],
                                 mask_of(v - 1 for v in out["isolated_witness"]))
    cert.check(files.graph_from_text(path.read_text()))


def test_cli_witness_at_the_value_names_it(capsys):
    # both kinds have the value 7 on these targets
    for kind, noun in (("pm", "bad coloring"), ("core", "cover")):
        for n in ("7", "9"):
            assert main(["witness", kind, "--targets", "5,5,5", "-n", n]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"no {noun} of K_{n} exists: the value is 7" in captured.err


def test_cli_witness_below_the_value(capsys):
    # both kinds write the value's witness on its first n vertices, for
    # every n from 1 to value - 1 = 6
    for n in range(1, 7):
        assert main(["witness", "pm", "--targets", "5,5,5", "-n", str(n)]) == 0
        col = files.coloring_from_text(capsys.readouterr().out)
        assert col.n == n and all(q < 5 for q in mono_pm_profile(col)), n
        assert main(["witness", "core", "--targets", "5,5,5", "-n", str(n)]) == 0
        cover = files.cover_from_json(json.loads(capsys.readouterr().out))
        cover.validate()
        assert (cover.n, cover.capacities) == (n, (4, 4, 4)), n


def test_cli_witness_pm_computes_the_value_once(monkeypatch, capsys):
    from ramsey_pm import cli
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return exact_pm_ramsey(*args, **kw)

    monkeypatch.setattr(pm_ramsey, "exact_pm_ramsey", counted)
    monkeypatch.setattr(cli, "exact_pm_ramsey", counted)
    # the value is 16: n = 15 writes a witness, n = 16 names the value
    for n, code in (("15", 0), ("16", 1)):
        calls.clear()
        assert main(["witness", "pm", "--targets", "6*10", "-n", n]) == code, n
        capsys.readouterr()
        assert len(calls) == 1, n


def test_cli_targets_of_one_keep_their_color(tmp_path, capsys):
    assert main(["exact", "pm", "--targets", "6,1,6", "--cache", "none", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["targets"], out["value"], out["witness"]["r"]) == ([6, 6, 1], 7, 3)
    path = tmp_path / "w.coloring"
    assert main(["witness", "pm", "--targets", "3,1", "-n", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().splitlines()[0] == "2 2"


def test_public_names_resolve_once():
    # every name the package exports exists, and none is listed twice
    names = ramsey_pm.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ramsey_pm, name), name


def test_perfbench_boundaries_exist():
    # perfbench/tracer.py wraps these (module, attribute) pairs; a missing
    # one breaks `perfbench/run.py --self-check`
    import ast
    import importlib
    tracer = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(tracer, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    pairs = [pair for node in tree.body if isinstance(node, ast.Assign)
             and node.targets[0].id in ("BOUNDARIES", "HOT_BOUNDARIES")
             for pair in ast.literal_eval(node.value)]
    assert len(pairs) >= 8
    for module, attr in pairs:
        assert hasattr(importlib.import_module(f"ramsey_pm.{module}"), attr), (module, attr)


def test_perfbench_library_names_exist():
    # every name perfbench imports from ramsey_pm, and every "module.func"
    # it names: each workload Call's function and the module-level names
    # such as child.py's REDUCTION.  A deletion in the library then fails
    # here rather than in a benchmark run
    import ast
    import importlib
    import re
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    imported, named = [], []
    for name in sorted(os.listdir(bench)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(bench, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ramsey_pm"):
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Call":
                named.append(ast.literal_eval(node.args[0]))
        named += [node.value.value for node in tree.body if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Constant)
                  and re.fullmatch(r"[a-z_]+\.[a-z_]+", str(node.value.value))]
    assert {"packing_oracle", "mono_pm_profile", "bits"} <= {attr for _, attr in imported}
    assert "pm_ramsey.exact_pm_ramsey" in named and "pm_ramsey.verify_upper" in named
    for module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    for dotted in named:
        module, attr = dotted.split(".")
        assert hasattr(importlib.import_module(f"ramsey_pm.{module}"), attr), dotted


def test_core_scan_past_bound_exits_3(monkeypatch, capsys):
    # a bound below the true value 5 of (4,4,4) makes the scan overrun it
    monkeypatch.setattr(core_ramsey, "core_upper", lambda ts: ts[0])
    with pytest.raises(RouteDisagreementError) as err:
        exact_core_ramsey((4, 4, 4))
    assert err.value.details == {"targets": (4, 4, 4), "n": 5, "bound": 4}
    assert main(["exact", "core", "--targets", "4,4,4", "--cache", "none"]) == 3
    capsys.readouterr()


def test_cli_reproduce_full_report(capsys):
    assert main(["reproduce", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 80 and all(row["passed"] for row in rows)


def test_cli_reproduce_bad_filter_exits_1(capsys):
    # an invalid pattern and one that matches no row are usage errors
    for pattern, message in (("(", "invalid --only pattern"),
                             ("^no such row$", "'^no such row$' matches no row")):
        assert main(["reproduce", "--only", pattern]) == 1, pattern
        captured = capsys.readouterr()
        assert captured.out == "", pattern
        assert captured.err.startswith("error: ") and message in captured.err, pattern


def test_cli_reproduce_filtered(capsys):
    assert main(["reproduce", "--only", r"R_PM\(3,3,3\)$", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["passed"]
    # the p1 < 2r - 2 case, above the standard value 15
    assert main(["reproduce", "--only", r"^R_PM\(6x10\)", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["passed"] and rows[0]["computed"] == "16"
    # Fort-Hedlund C(v,3), in the default report with no opt-in rows
    assert main(["reproduce", "--only", r"^C\(10,3\)$", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["passed"] and rows[0]["computed"] == "17"
    assert "slow" not in rows[0]


def test_reproduce_budget_exhaustion_exits_2(monkeypatch, capsys):
    # a row that runs out of budget has no verdict, so it is not a failing
    # row (exit 3): the whole report stops with exit 2
    def exhausted(v, k, **kw):
        raise BudgetExceededError(f"C({v},{k}) exhausted its budget")
    monkeypatch.setattr(reproduce, "covering_number", exhausted)
    assert main(["reproduce", "--only", r"C\(9,5\)"]) == 2
    assert "budget exhausted" in capsys.readouterr().err


def test_reproduce_pm_witness_row_checks_n(monkeypatch):
    # the K_5 cut of a valid K_6 witness keeps every profile below 5, but
    # the row names K_6; a missing witness fails too
    k5 = find_lower_witness(6, (5, 5, 5)).restrict(5)
    for witness, computed in ((k5, "profile "), (None, "missing")):
        monkeypatch.setattr(reproduce, "find_lower_witness", lambda n, ts, w=witness: w)
        (row,) = reproduce.run_report(r"witness for R_PM\(5,5,5\)")
        assert row.computed.startswith(computed) and not row.passed, row


def test_reproduce_cover_witness_row_checks_capacities(monkeypatch):
    # a valid cover of K_6 by blocks {0..4}, {1..5}, {0,5} within
    # capacities (5,5,5), where R_1C(5,5,5) asks for (4,4,4)
    wide = BlockCover(6, (5, 5, 5), (0b011111, 0b111110, 0b100001))
    wide.validate()
    for witness, computed in ((wide, "block sizes [2, 5, 5]"), (None, "missing")):
        monkeypatch.setattr(reproduce, "exact_core_ramsey",
                            lambda ts, w=witness: SimpleNamespace(lower_witness=w))
        (row,) = reproduce.run_report(r"cover witness for R_1C\(5,5,5\)")
        assert (row.computed, row.passed) == (computed, False), row


def test_every_search_entry_point_has_one_default_budget():
    # the same search gets the same node budget whichever way it is started
    cover_entry_points = (core_ramsey.cover_feasible_with_stats,
                          core_ramsey.exact_core_ramsey, core_ramsey.covering_number)
    entry_points = cover_entry_points + (pm_ramsey.core_value, pm_ramsey.verify_upper,
                                         pm_ramsey.find_lower_witness,
                                         pm_ramsey.exact_pm_ramsey, search.enumerate_colorings)
    for fn in entry_points:
        assert inspect.signature(fn).parameters["node_budget"].default == 50_000_000, fn
    # budgets are the only limit of the cover search: no size cap knob
    for fn in cover_entry_points:
        knobs = {name for name, param in inspect.signature(fn).parameters.items()
                 if param.default is not inspect.Parameter.empty}
        assert knobs <= {"node_budget", "time_budget", "progress"}, (fn, knobs)
    parser = build_parser()
    for argv in (["exact", "core", "--targets", "4,4,4"],
                 ["witness", "pm", "--targets", "5,5,5", "-n", "6"]):
        assert parser.parse_args(argv).node_budget == 50_000_000


def test_env_var_cache_path(monkeypatch, tmp_path):
    target = str(tmp_path / "envcache.json")
    monkeypatch.setenv("RAMSEY_PM_CACHE", target)
    assert files.default_cache_path() == target


def test_deep_coloring_search_exits_on_its_budget(capsys):
    # the scan's first search, at n = 53, is deeper than the interpreter's
    # default recursion limit before it runs out of nodes
    assert main(["exact", "pm", "--targets", "40,40", "--strategy", "search",
                 "--node-budget", "30000", "--cache", "none"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exhausted" in captured.err


def test_graph_header_takes_one_integer(tmp_path, capsys):
    # coloring files, whose header is 'n r', are not graphs
    for text in ("1 9\n", "3 9\n1 2\n2 3\n"):
        path = tmp_path / "c.graph"
        path.write_text(text)
        assert main(["deficiency", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: line 1" in captured.err, text


def test_short_line_in_a_text_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("3\n1 2\n3\n")
    assert main(["deficiency", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: line 3" in captured.err
    with pytest.raises(ValueError, match="line 1"):
        files.coloring_from_text("3\n1 1\n1\n")


def test_cache_entry_without_a_valid_witness_is_recomputed(tmp_path, capsys):
    # (4,4,4) has the values 6 (pm) and 5 (core); no entry below may answer,
    # not even the right value with a valid witness of the other kind
    mono_k8 = {"type": "coloring", "n": 8, "r": 3, "rows": [[1] * (7 - u) for u in range(7)]}
    bare_k8 = {"type": "cover", "n": 8, "capacities": [3, 3, 3], "blocks": [[], [], []]}
    bad_k4 = files.witness_to_json(find_lower_witness(4, (4, 4, 4)))
    cover_k5 = files.witness_to_json(exact_core_ramsey((4, 4, 4)).lower_witness)
    path = tmp_path / "cache.json"
    for kind, entry in (("pm", 5), ("pm", {"value": 9, "method": "closed-form"}),
                        ("pm", {"value": 9, "method": "closed-form", "witness": mono_k8}),
                        ("core", {"value": 9, "method": "exhaustive-search",
                                  "witness": bare_k8}),
                        ("pm", {"value": 6, "method": "closed-form", "witness": cover_k5}),
                        ("core", {"value": 5, "method": "exhaustive-search",
                                  "witness": bad_k4})):
        key, want = ("PM:4,4,4", 6) if kind == "pm" else ("1C:4,4,4", 5)
        path.write_text(json.dumps({key: entry}))
        assert main(["exact", kind, "--targets", "4,4,4", "--cache", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == want and "cached" not in out, entry
        stored = json.loads(path.read_text())[key]
        assert stored["value"] == want and stored["witness"] == out["witness"], entry


def test_cache_value_against_its_proof_is_recomputed(tmp_path, capsys):
    # each witness below is valid, but a proven closed form (pm, 6) or the
    # largest-target lower bound (core, 4) rules its value out
    k4 = files.witness_to_json(find_lower_witness(4, (4, 4, 4)))
    k2 = files.witness_to_json(BlockCover(2, (3, 3, 3), (0b11, 0, 0)))
    path = tmp_path / "cache.json"
    for kind, key, entry, want in (
            ("pm", "PM:4,4,4", {"value": 5, "method": "closed-form", "witness": k4}, 6),
            ("core", "1C:4,4,4", {"value": 3, "method": "exhaustive-search", "witness": k2}, 5)):
        path.write_text(json.dumps({key: entry}))
        assert main(["exact", kind, "--targets", "4,4,4", "--cache", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == want and "cached" not in out, kind
        assert json.loads(path.read_text())[key]["value"] == want, kind


def test_cache_hit_carries_its_witness(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    for kind, targets, value in (("pm", "5,5,5", 7), ("core", "4,4,4", 5)):
        exact = ["exact", kind, "--targets", targets, "--cache", path, "--json"]
        assert main(exact) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert main(exact) == 0
        hit = json.loads(capsys.readouterr().out)
        assert hit["cached"] is True and hit["value"] == value, kind
        assert hit["witness"] == fresh["witness"] and hit["witness"]["n"] == value - 1, kind


def test_auto_disagreement_exits_3(monkeypatch, capsys):
    real = pm_ramsey.closed_form_value
    monkeypatch.setattr(pm_ramsey, "closed_form_value",
                        lambda ts: (3, "closed-form") if ts == (3, 3, 3) else real(ts))
    assert main(["exact", "pm", "--targets", "3,3,3", "--cache", "none"]) == 3
    assert '"reduction": 4' in capsys.readouterr().err


def test_search_route_out_of_budget_exits_2(capsys):
    # the search route searches at every size; it never hands over to the
    # reduction, whose value 16 it would otherwise print
    assert main(["exact", "pm", "--targets", "6*10", "--strategy", "search",
                 "--node-budget", "2000", "--cache", "none"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exhausted" in captured.err


def test_exact_core_trivial_targets_are_a_table_value(capsys):
    # targets of at most 2 need no search, so the method says so
    assert exact_core_ramsey((2, 2)).method == "table"
    assert main(["exact", "core", "--targets", "2,2", "--cache", "none", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["value"], out["method"], out["stats"]["nodes"]) == (2, "table", 0)


def test_all_ones_targets_under_auto(capsys):
    for targets, r in (("1", 1), ("1,1,1", 3)):
        assert main(["exact", "pm", "--targets", targets, "--cache", "none", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["value"], out["method"]) == (2, "table"), targets
        assert (out["witness"]["n"], out["witness"]["r"]) == (1, r), targets


def test_coloring_rows_read_alike_from_text_and_json(rng):
    # both readers take the same rows: n - 1 of them, row u holding n - u - 1
    # colors; misaligned rows with the right total are rejected by both
    for _ in range(20):
        n, r = rng.randint(1, 9), rng.randint(1, 4)
        col = EdgeColoring(n, r, tuple(rng.randint(1, r) for _ in range(n * (n - 1) // 2)))
        rows = [line.split() for line in files.coloring_to_text(col).splitlines()[1:]]
        assert files.coloring_to_json(col)["rows"] == [[int(x) for x in row] for row in rows]
        assert files.coloring_from_json(files.coloring_to_json(col)) == col
    for rows in ([[1], [2, 1]], [[1, 2]], [[1, 2], [1, 1]], [[1, 2], [1], [1]]):
        text = "3 2\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
        with pytest.raises(ValueError):
            files.coloring_from_text(text)
        with pytest.raises(ValueError):
            files.coloring_from_json({"type": "coloring", "n": 3, "r": 2, "rows": rows})
    # a cache entry is read through the JSON reader, so its rows must align
    # too: the rainbow K_3 certifies R_PM(3,3,3) = 4, its rows laid out
    # wrong do not
    from ramsey_pm.cli import _cached_result
    rainbow = {"type": "coloring", "n": 3, "r": 3, "rows": [[1, 2], [3]]}
    for rows, answers in (([[1, 2], [3]], True), ([[1], [2, 3]], False)):
        entry = {"value": 4, "method": "closed-form", "witness": dict(rainbow, rows=rows)}
        assert (_cached_result(entry, "pm", (3, 3, 3)) is not None) == answers, rows


def test_cli_witness_cut_is_revalidated_for_both_kinds(monkeypatch, capsys):
    # the cut goes through _witness_valid for both kinds; a cut that fails
    # it is an internal inconsistency, exit 3, and nothing is written
    from ramsey_pm import cli
    checked = []

    def spy(witness, n, ts):
        checked.append((type(witness).__name__, witness.n, n, ts))
        return pm_ramsey._witness_valid(witness, n, ts)

    monkeypatch.setattr(cli, "_witness_valid", spy)
    for kind in ("pm", "core"):
        assert main(["witness", kind, "--targets", "5,5,5", "-n", "4"]) == 0
        capsys.readouterr()
    assert checked == [("EdgeColoring", 4, 4, (5, 5, 5)), ("BlockCover", 4, 4, (5, 5, 5))]
    monkeypatch.setattr(cli, "_witness_valid", lambda witness, n, ts: False)
    for kind in ("pm", "core"):
        assert main(["witness", kind, "--targets", "5,5,5", "-n", "4"]) == 3, kind
        captured = capsys.readouterr()
        assert captured.out == "" and "internal inconsistency" in captured.err, kind


def test_cli_default_text_outputs(tmp_path, capsys):
    assert main(["bounds", "--targets", "6*10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:1] == ["standard-value"] and line.endswith("15  (condition fails)")
               for line in lines)
    assert any(line.split() == ["edgecount-upper", "upper", "15"] for line in lines)
    star = tmp_path / "star.graph"
    star.write_text("4\n1 2\n1 3\n1 4\n")
    assert main(["deficiency", str(star)]) == 0
    out = capsys.readouterr().out
    assert "deficiency: 1\n" in out and "max path-matching order: 3\n" in out
    assert "LV set (1-indexed): [1]\n" in out and "isolated after removal: [2, 3, 4]\n" in out
    assert main(["reproduce", "--only", r"R_PM\(3,3,3\)$"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS") and "R_PM(3,3,3)" in lines[0]
    assert lines[-1] == "1/1 checks passed"
    # `exact` and `witness -o` describe a witness alike
    assert main(["exact", "pm", "--targets", "5,5,5", "--cache", "none"]) == 0
    assert "witness: coloring of K_6 with profile (4, 3, 3)\n" in capsys.readouterr().out
    out = tmp_path / "w.cover"
    assert main(["witness", "core", "--targets", "5,5,5", "-n", "4", "-o", str(out)]) == 0
    assert capsys.readouterr().out.startswith("cover of K_4 with block sizes (")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_output_pipe_is_not_an_error(monkeypatch, capsys):
    # the reader of the output went away (`| head`): exit 0, say nothing
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["exact", "pm", "--targets", "3,3,3,3", "--cache", "none"]) == 0
    assert main(["witness", "pm", "--targets", "5,5,5", "-n", "3"]) == 0
    assert main(["--help"]) == 0
    assert capsys.readouterr().err == ""


def test_closed_output_pipe_in_a_process_exits_0():
    # a pipe whose read end is closed before the process starts, so every
    # write to it fails; nothing reaches stderr, not even at shutdown
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(files.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "ramsey_pm.cli", "exact", "pm",
                               "--targets", "3,3,3,3", "--cache", "none"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
