import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uatest.cli import build_parser, main
from uatest.data import berkeley_admissions
from uatest.dataset import DataSource, load_csv, save_csv


@pytest.fixture()
def berkeley_csv(tmp_path):
    path = tmp_path / "berkeley.csv"
    save_csv(berkeley_admissions(), path)
    schema = {
        "gender": {"kind": "categorical", "role": "protected",
                   "categories": ["Female", "Male"]},
        "department": {"kind": "categorical", "role": "contextual"},
        "admitted": {"kind": "categorical", "role": "output",
                     "categories": ["No", "Yes"]},
    }
    spath = tmp_path / "schema.json"
    spath.write_text(json.dumps(schema))
    return str(path), str(spath)


def test_help_lists_flags_for_every_subcommand(capsys):
    for cmd in ("testing", "discovery", "error-profile", "debug", "bench", "tree-vs-itemsets"):
        assert main([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out or "--state" in out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["testing", "--nonsense"]) == 1
    assert main(["bogus-command"]) == 1


def test_testing_happy_path(berkeley_csv, capsys, tmp_path):
    data, schema = berkeley_csv
    code = main(["testing", "--data", data, "--schema", schema,
                 "--protected", "gender", "--output", "admitted",
                 "--context", "department", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Report of associations of O=admitted on S=gender" in out
    assert "Global Population" in out


def test_cli_byte_determinism(berkeley_csv, tmp_path):
    data, schema = berkeley_csv
    outs = []
    for i in (1, 2):
        out = tmp_path / f"r{i}.txt"
        code = main(["testing", "--data", data, "--schema", schema, "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_json_format(berkeley_csv, tmp_path):
    data, schema = berkeley_csv
    out = tmp_path / "r.json"
    assert main(["testing", "--data", data, "--schema", schema, "--seed", "2",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "reports" in doc and len(doc["reports"]) == 1
    assert isinstance(doc["reports"][0]["global"]["tested"]["p"], float)


def test_debug_requires_state_file(berkeley_csv, tmp_path):
    data, schema = berkeley_csv
    code = main(["debug", "--data", data, "--state", str(tmp_path / "missing.json"),
                 "--explanatory", "department"])
    assert code == 2


def test_debug_flow_and_budget_exhaustion(berkeley_csv, tmp_path, capsys):
    data, schema = berkeley_csv
    state = tmp_path / "state.json"
    assert main(["testing", "--data", data, "--schema", schema, "--seed", "2",
                 "--budget", "2", "--state", str(state),
                 "--out", str(tmp_path / "r1.txt")]) == 0
    assert main(["debug", "--data", data, "--state", str(state),
                 "--explanatory", "department", "--out", str(tmp_path / "r2.txt")]) == 0
    text = (tmp_path / "r2.txt").read_text()
    assert "conditioned on explanatory attribute E=department" in text
    # budget of 2 is now spent
    assert main(["debug", "--data", data, "--state", str(state),
                 "--explanatory", "department"]) == 3


def test_debug_rejects_changed_data(berkeley_csv, tmp_path):
    data, schema = berkeley_csv
    state = tmp_path / "state.json"
    assert main(["testing", "--data", data, "--schema", schema, "--seed", "2",
                 "--budget", "2", "--state", str(state),
                 "--out", str(tmp_path / "r.txt")]) == 0
    other = tmp_path / "other.csv"
    other.write_text("gender,department,admitted\nFemale,A,Yes\nMale,A,No\n")
    assert main(["debug", "--data", str(other), "--state", str(state),
                 "--explanatory", "department"]) == 2


def test_threads_flag_is_accepted_and_ignored(berkeley_csv, tmp_path):
    # the benchmark harness appends --threads N to every invocation
    data, schema = berkeley_csv
    saved = tmp_path / "saved.json"
    assert main(["testing", "--data", data, "--schema", schema, "--seed", "3",
                 "--budget", "2", "--state", str(saved), "--out", str(tmp_path / "r.txt")]) == 0
    state = tmp_path / "state.json"
    for cmd, argv in (("testing", ["--schema", schema, "--seed", "3", "--format", "json"]),
                      ("debug", ["--state", str(state), "--explanatory", "department"])):
        outs = []
        for threads in (["--threads", "1"], ["--threads", "2"], []):
            state.write_bytes(saved.read_bytes())
            out = tmp_path / "out"
            assert main([cmd, "--data", data, *argv, *threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], cmd


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n", "20000", "--plants", "3", "--delta", "0.25",
                 "--size", "400", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,size,recall,false_discoveries,seed"
    delta, size, recall, fd, seed = lines[1].split(",")
    assert float(delta) == 0.25 and int(size) == 400 and int(seed) == 3
    assert 0.0 <= float(recall) <= 1.0


@pytest.mark.parametrize("setting,argv", [
    ("n", ["--n", "0"]),
    ("delta", ["--delta", "-0.1"]),
    ("delta", ["--delta", "0.6"]),
    ("n_plants", ["--plants", "0"]),
    ("n_plants", ["--plants", "-1"]),
])
def test_bench_rejects_a_bad_setting_before_generating(tmp_path, capsys, setting, argv):
    out = tmp_path / "bench.csv"
    assert main(["bench", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"uatest: {setting} must ")
    assert not out.exists()


def test_tree_vs_itemsets_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["tree-vs-itemsets", "--n", "6000", "--attrs", "8", "--seed", "1",
                 "--min-size", "300", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "strategy,candidates_considered,top3_mean_association"
    assert lines[1].startswith("guided-tree,")
    assert lines[2].startswith("itemsets,")


def test_seed_env_fallback(berkeley_csv, tmp_path, monkeypatch):
    data, schema = berkeley_csv
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("UATEST_SEED", "9")
    assert main(["testing", "--data", data, "--schema", schema, "--out", str(a)]) == 0
    monkeypatch.delenv("UATEST_SEED")
    assert main(["testing", "--data", data, "--schema", schema, "--seed", "9",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_seed_variable_is_a_usage_error_only_without_seed(berkeley_csv, tmp_path,
                                                             monkeypatch, capsys):
    data, schema = berkeley_csv
    monkeypatch.setenv("UATEST_SEED", "abc")
    assert main(["testing", "--help"]) == 0
    assert main(["testing", "--data", data, "--schema", schema, "--seed", "9",
                 "--out", str(tmp_path / "r.txt")]) == 0
    capsys.readouterr()
    assert main(["testing", "--data", data, "--schema", schema]) == 1
    assert "UATEST_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["testing", "--protected", "s", "--output", "o"],
    ["discovery", "--protected", "s", "--output", "l1,l2"],
    ["error-profile", "--protected", "s", "--output", "o", "--ground-truth", "g"],
    ["bench"],
    ["tree-vs-itemsets"],
], ids=["testing", "discovery", "error-profile", "bench", "tree-vs-itemsets"])
def test_a_negative_seed_exits_2_before_any_data_is_read(roles_csv, tmp_path, capsys,
                                                         monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("data was read or generated")

    for name in ("load_csv", "run_detection_benchmark", "tree_vs_itemsets"):
        monkeypatch.setattr(f"uatest.cli.{name}", refuse)
    data = [] if argv[0] in ("bench", "tree-vs-itemsets") else ["--data", roles_csv]
    out = tmp_path / "out.txt"
    assert main([*argv, *data, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "uatest: --seed must be non-negative, got -1\n"
    assert not out.exists()


def test_a_negative_seed_variable_is_a_usage_error(roles_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UATEST_SEED", "-3")
    out = tmp_path / "out.txt"
    assert main(["testing", "--data", roles_csv, "--protected", "s", "--output", "o",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "uatest: UATEST_SEED must be non-negative, got '-3'\n"
    assert not out.exists()


def test_a_directory_for_a_file_exits_2_naming_it(berkeley_csv, tmp_path, capsys):
    data, schema = berkeley_csv
    state = tmp_path / "state.json"
    assert main(["testing", "--data", data, "--schema", schema, "--budget", "2",
                 "--state", str(state), "--out", str(tmp_path / "r.txt")]) == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh.txt"
    bench = ["--n", "4000", "--size", "400", "--plants", "1", "--seed", "1"]
    for argv in (["testing", "--data", str(tmp_path), "--schema", schema],
                 ["testing", "--data", data, "--schema", schema, "--out", str(tmp_path)],
                 ["testing", "--data", data, "--schema", schema, "--state", str(tmp_path),
                  "--out", str(fresh)],
                 ["debug", "--data", data, "--state", str(tmp_path),
                  "--explanatory", "department"],
                 ["bench", *bench, "--dump-data", str(tmp_path), "--out", str(fresh)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("uatest: ") and err.count("\n") == 1, err
        assert repr(str(tmp_path)) in err, err
    # an unusable path fails before the run: no report is written
    assert not fresh.exists()
    # so does a path in a directory that does not exist
    nowhere = str(tmp_path / "no" / "r.txt")
    for argv in (["testing", "--data", data, "--schema", schema, "--out", nowhere],
                 ["testing", "--data", data, "--schema", schema, "--state", nowhere,
                  "--out", str(fresh)],
                 ["bench", *bench, "--dump-data", nowhere, "--out", str(fresh)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("uatest: ") and err.count("\n") == 1, err
        assert repr(nowhere) in err, err
    assert not fresh.exists()


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,a\n1,2\n")
    assert main(["testing", "--data", str(bad), "--protected", "a", "--output", "a"]) == 2


@pytest.fixture()
def tagged_csv(tmp_path):
    import numpy as np
    rng = np.random.default_rng(5)
    n = 2000
    race = rng.choice(["black", "white"], n)
    rows = ["race,cart,person"]
    for r in race:
        cart = "1" if rng.random() < (0.25 if r == "black" else 0.05) else "0"
        person = "1" if rng.random() < 0.9 else "0"
        rows.append(f"{r},{cart},{person}")
    path = tmp_path / "tagged.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_discovery_cli(tagged_csv, capsys):
    code = main(["discovery", "--data", tagged_csv, "--protected", "race",
                 "--output", "cart,person", "--top-k", "2", "--seed", "4",
                 "--min-size", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Report of associations of O=Labels on S=race" in out
    assert "cart" in out


def test_discovery_lists_a_label_under_the_group_shown_it_more(tmp_path, capsys):
    # cart's first row shows it, and its categories still read ("0", "1"),
    # so the report lists it under black with the shares of rows shown it
    import numpy as np
    rng = np.random.default_rng(5)
    race = rng.choice(["black", "white"], 2000)
    cart = rng.random(2000) < np.where(race == "black", 0.3, 0.05)
    cart[0] = True
    person = rng.random(2000) < 0.5
    path = tmp_path / "tagged.csv"
    path.write_text("race,cart,person\n" + "".join(
        f"{r},{int(c)},{int(p)}\n" for r, c, p in zip(race, cart, person)))
    assert main(["discovery", "--data", str(path), "--protected", "race",
                 "--output", "cart,person", "--top-k", "2", "--seed", "4",
                 "--min-size", "200"]) == 0
    out = capsys.readouterr().out
    black = out.split("Labels associated with race=black:\n")[1].split("\n\n")[0]
    header, _, row = ([cell.strip() for cell in line.split("|")] for line in black.splitlines())
    assert dict(zip(header[:3], row[:3])) == {"Label": "cart", "white": "5%", "black": "30%"}


def test_error_profile_cli(tmp_path, capsys):
    import numpy as np
    rng = np.random.default_rng(6)
    n = 3000
    rows = ["age,pred,actual"]
    for _ in range(n):
        age = rng.uniform(20, 90)
        actual = rng.normal(2, 1)
        pred = actual + rng.normal(0, 0.1 + 0.01 * (age - 20))
        rows.append(f"{age!r},{pred!r},{actual!r}")
    path = tmp_path / "preds.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["error-profile", "--data", str(path), "--protected", "age",
                 "--output", "pred", "--ground-truth", "actual",
                 "--error", "absolute", "--seed", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Report of associations of O=Abs. Error(pred) on S=age" in out
    assert "CORR" in out


def test_undefined_absolute_errors_are_dropped_as_missing(tmp_path, capsys):
    # a fifth of the rows predict inf for a truth of inf: their error, inf -
    # inf, is undefined, so they are dropped and counted with the rows that
    # miss a value, and every size the report gives is the rows CORR reads
    rng = np.random.default_rng(8)
    n = 3000
    age = rng.uniform(20, 90, n)
    truth = rng.normal(2, 1, n)
    pred = truth + rng.normal(0, 0.1 + 0.01 * (age - 20))
    infinite = rng.random(n) < 0.2
    truth[infinite] = pred[infinite] = np.inf
    rows = ["age,pred,truth"] + [f"{a},{p},{t}" for a, p, t in zip(age, pred, truth)]
    path = tmp_path / "preds.csv"
    path.write_text("\n".join(rows) + "\n")
    argv = ["error-profile", "--data", str(path), "--protected", "age", "--output", "pred",
            "--ground-truth", "truth", "--seed", "8"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
        assert main([*argv, "--out", str(tmp_path / "r.txt")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    (report,) = json.loads((tmp_path / "r.json").read_text())["reports"]

    source = DataSource(load_csv(path), budget=1, seed=8)
    test = source.next_test_set()
    t = test.scalar_values("truth")
    kept = ~np.isinf(t)
    x, error = test.scalar_values("age")[kept], np.abs(test.scalar_values("pred")[kept] - t[kept])
    assert report["dropped_test"] == int((~kept).sum()) > 0
    assert report["dropped_train"] == int(infinite.sum()) - report["dropped_test"] > 0
    assert report["train_size"] + report["test_size"] == n - infinite.sum()
    assert report["global"]["size"] == report["test_size"] == kept.sum()
    assert report["global"]["tested"]["estimate"] == pytest.approx(
        np.corrcoef(x, error)[0, 1], abs=1e-12)
    text = (tmp_path / "r.txt").read_text()
    assert (f"Rows dropped for missing values: {report['dropped_train']} train, "
            f"{report['dropped_test']} test.") in text.splitlines()


@pytest.fixture()
def scored_csv(tmp_path):
    """Berkeley admissions plus a continuous ``score`` column."""
    import numpy as np
    from uatest.dataset import AttributeSchema
    data = berkeley_admissions()
    score = np.random.default_rng(7).uniform(0, 100, data.n_rows)
    path = tmp_path / "scored.csv"
    save_csv(data.with_encoded(AttributeSchema("score", "continuous"), score), path)
    return str(path)


ROLES = ["--protected", "gender", "--output", "admitted", "--context", "department"]


def test_testing_rejects_continuous_explanatory(scored_csv, capsys):
    code = main(["testing", "--data", scored_csv, *ROLES, "--explanatory", "score",
                 "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("uatest: explanatory attribute 'score' is continuous; "
                            "conditioning needs a categorical or ordinal attribute\n")
    assert captured.out == ""


def test_debug_rejects_bad_explanatory(scored_csv, tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["testing", "--data", scored_csv, *ROLES, "--seed", "2", "--budget", "2",
                 "--state", str(state), "--out", str(tmp_path / "r1.txt")]) == 0
    capsys.readouterr()
    # the same one-line message as the testing command: no test has run
    for column, message in (("score", "explanatory attribute 'score' is continuous; "
                                      "conditioning needs a categorical or ordinal attribute"),
                            ("nosuch", "no attribute named 'nosuch'")):
        assert main(["debug", "--data", scored_csv, "--state", str(state),
                     "--explanatory", column]) == 2
        assert capsys.readouterr().err == f"uatest: {message}\n"
    # a rejected debug run spends no test set
    assert main(["debug", "--data", scored_csv, "--state", str(state),
                 "--explanatory", "department", "--out", str(tmp_path / "r2.txt")]) == 0


def test_all_missing_context_column_is_named(berkeley_csv, tmp_path, capsys):
    data, schema = berkeley_csv
    lines = Path(data).read_text().splitlines()
    path = tmp_path / "with_job.csv"
    path.write_text("\n".join([lines[0] + ",job"] + [line + "," for line in lines[1:]]) + "\n")
    code = main(["testing", "--data", str(path), "--schema", schema,
                 "--protected", "gender", "--output", "admitted",
                 "--context", "department,job", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "'job'" in captured.err and "no values" in captured.err
    assert "'department'" not in captured.err
    assert captured.out == ""


def test_inferred_continuous_output_points_at_schema(tmp_path, capsys):
    import numpy as np
    from uatest.dataset import AttributeSchema
    data = berkeley_admissions()
    score = np.random.default_rng(3).integers(0, 41, data.n_rows)
    path = tmp_path / "scores.csv"
    save_csv(data.with_encoded(AttributeSchema("score", "categorical",
                                               categories=tuple(map(str, range(41)))), score),
             path)
    argv = ["testing", "--data", str(path), "--protected", "gender", "--output", "score",
            "--context", "department", "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'gender' (categorical)" in err and "'score' (continuous)" in err
    assert "--schema" in err
    # the hint is actionable: pinning the column categorical makes the run go
    spath = tmp_path / "schema.json"
    spath.write_text(json.dumps({"score": {"kind": "categorical"}}))
    assert main(argv + ["--schema", str(spath), "--out", str(tmp_path / "r.txt")]) == 0


@pytest.mark.parametrize("flags, setting", [
    (["testing", "--min-size", "5"], "min_size"),
    (["testing", "--max-depth", "-1"], "max_depth"),
    (["bench", "--n", "30000", "--size", "800", "--plants", "5", "--seed", "2",
      "--min-size", "5"], "min_size"),
])
def test_bad_tree_setting_is_a_one_line_data_error(berkeley_csv, capsys, flags, setting):
    data, schema = berkeley_csv
    argv = flags
    if flags[0] == "testing":
        argv = flags + ["--data", data, "--schema", schema, "--protected", "gender",
                        "--output", "admitted", "--context", "department", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert setting in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_untestable_global_population_is_a_data_error(tmp_path, capsys):
    # protected group b occurs only in training rows: DIFF is undefined on
    # the test rows' global population, which must not yield an empty report
    n, seed = 400, 1
    train_rows = np.random.default_rng(seed).permutation(n)[:n // 2]
    g = np.full(n, "a")
    g[train_rows[:100]] = "b"
    rows = "".join(f"{g[i]},{'xyz'[i % 3]},{i % 5 % 2}\n" for i in range(n))
    path = tmp_path / "split.csv"
    path.write_text("g,x,o\n" + rows)
    assert main(["testing", "--data", str(path), "--protected", "g", "--output", "o",
                 "--context", "x", "--min-size", "10", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "protected attribute 'g'" in captured.err and "output 'o'" in captured.err
    assert "DIFF undefined on this population" in captured.err


@pytest.mark.parametrize("half, message", [
    ("training", "CORR undefined on the 200 training rows of protected attribute 'age' and "
                 "output 'Abs. Error(pred)'"),
    ("test", "global population untestable for protected attribute 'age' and output "
             "'Abs. Error(pred)' on the test rows: CORR undefined on this population"),
])
def test_an_infinite_cell_is_named_where_corr_is_undefined(tmp_path, capsys, half, message):
    # two infinite predictions, and so two infinite errors, in one half of
    # the split leave CORR undefined there
    n, seed = 400, 1
    perm = np.random.default_rng(seed).permutation(n)
    rows = perm[:n // 2] if half == "training" else perm[n // 2:]
    rng = np.random.default_rng(3)
    age, actual = rng.uniform(20, 90, n), rng.normal(2, 1, n)
    pred = actual + rng.normal(0, 1, n)
    pred[rows[:2]] = np.inf
    path = tmp_path / "preds.csv"
    path.write_text("age,pred,actual,c\n" + "".join(
        f"{a},{p},{t},{'xyz'[i % 3]}\n" for i, (a, p, t) in enumerate(zip(age, pred, actual))))
    assert main(["error-profile", "--data", str(path), "--protected", "age", "--output", "pred",
                 "--ground-truth", "actual", "--context", "c", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"uatest: {message}: column 'Abs. Error(pred)' holds an infinite "
                            "value in 2 of these rows\n")


def test_csv_with_byte_order_mark(tmp_path, capsys):
    rows = "".join(f"{'ab'[i % 2]},{'xyz'[i % 3]},{i % 5 % 2}\n" for i in range(300))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + ("g,c,o\n" + rows).encode())
    assert main(["testing", "--data", str(path), "--protected", "g", "--output", "o",
                 "--min-size", "50", "--seed", "1"]) == 0
    assert "Report of associations of O=o on S=g" in capsys.readouterr().out


@pytest.mark.parametrize("last_row", [b"b\xff,1\n", b"b" * 200_000 + b",1\n"],
                         ids=["not utf-8", "over-long cell"])
def test_unreadable_csv_exits_2_naming_the_file(tmp_path, capsys, last_row):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"g,o\n" + b"a,0\nb,1\n" * 150 + last_row)
    assert main(["testing", "--data", str(path), "--protected", "g", "--output", "o",
                 "--min-size", "50", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("uatest: "), lines
    assert str(path) in lines[0] and "line 302" in lines[0], lines[0]


def test_verbose_logs_on_stderr_and_leaves_the_report_alone(tmp_path, capsys):
    rows = "".join(f"{'ab'[i % 2]},{'xyz'[i % 3]},{i % 5 % 2}\n" for i in range(300))
    path = tmp_path / "d.csv"
    path.write_text("g,c,o\n" + rows)
    argv = ["testing", "--data", str(path), "--protected", "g", "--output", "o",
            "--min-size", "50", "--seed", "1"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert main([*argv, "-v"]) == 0
    info = capsys.readouterr()
    assert info.out == quiet.out
    assert "DEBUG" not in info.err
    assert main([*argv, "-vv"]) == 0
    debug = capsys.readouterr()
    assert debug.out == quiet.out
    assert f"uatest.dataset: DEBUG: read {path} with the numpy tokenizer\n" in debug.err
    assert main(argv) == 0
    assert capsys.readouterr() == quiet


@pytest.fixture()
def shift_tagged_csv(tmp_path):
    """Two labels shown by race, a region context and a shift column to
    condition on."""
    import numpy as np
    rng = np.random.default_rng(8)
    n = 3000
    race = rng.choice(["black", "white"], n)
    region = rng.choice(["n", "s", "e"], n)
    shift = rng.choice(["day", "night"], n)
    p_cart = np.where(race == "black", np.where(region == "n", 0.45, 0.2), 0.1)
    cart = rng.random(n) < p_cart
    person = rng.random(n) < 0.5
    rows = ["race,region,shift,cart,person"]
    rows += [f"{r},{g},{s},{int(c)},{int(p)}"
             for r, g, s, c, p in zip(race, region, shift, cart, person)]
    path = tmp_path / "shift_tagged.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_discovery_resamples_and_displays_only_what_it_ranks(shift_tagged_csv, tmp_path,
                                                              monkeypatch):
    from uatest import cli, investigations, stats
    boots, displays, results = [], [], []
    bootstrap, make_display, validate = stats._bootstrap, investigations._make_display, cli.validate

    def counting_bootstrap(*args):
        boots.append(1)
        return bootstrap(*args)

    def counting_display(*args):
        displays.append(1)
        return make_display(*args)

    def keeping_validate(*args, **kwargs):
        results.append(validate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(stats, "_bootstrap", counting_bootstrap)
    monkeypatch.setattr(investigations, "_make_display", counting_display)
    monkeypatch.setattr(cli, "validate", keeping_validate)
    out = tmp_path / "r.json"
    assert main(["discovery", "--data", shift_tagged_csv, "--protected", "race",
                 "--output", "cart,person", "--context", "region", "--explanatory", "shift",
                 "--top-k", "2", "--seed", "3", "--min-size", "200",
                 "--format", "json", "--out", str(out)]) == 0
    (result,) = results
    shown = [f for f in result.findings if f.rank is not None]
    assert len(shown) == len(json.loads(out.read_text())["reports"][0]["findings"]) >= 1
    strata = [sf.tested for f in shown for sf in f.strata if sf.tested is not None]
    assert strata
    # every conditional hypothesis and every stratum of at most 1,000 rows
    # tests by resampling; the bootstrap is drawn only for the significant
    # findings, whose corrected CIs rank them, and the strata of the shown
    # ones, and the displays are built only for the shown findings and strata
    family = [t for f in result.findings
              for t in (f.tested, *(sf.tested for sf in f.strata)) if t is not None]
    resampled = [t for t in family if t.method == stats.RESAMPLING]
    significant = [f.tested for f in result.findings if f.tested.corrected_p <= 0.05]
    drawn = {id(t) for t in significant + strata if t.method == stats.RESAMPLING}
    assert len(boots) == len(drawn) < len(resampled)
    assert all(("recipe" in vars(t._resampled)) == (id(t) in drawn) for t in resampled)
    assert len(displays) == len(shown) + len(strata)


def test_reported_unstable_context_exits_2_naming_it(shift_tagged_csv, monkeypatch, capsys):
    # every table bootstrap resample is degenerate, as in
    # test_stats.py::test_bootstrap_unstable_context; permutations are not
    from uatest import stats
    monkeypatch.setattr(stats._Tables, "draw", lambda self, rng, m: np.full(m, np.nan))
    code = main(["testing", "--data", shift_tagged_csv, "--protected", "race",
                 "--output", "cart", "--context", "region", "--seed", "1", "--min-size", "200"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unstable context" in err and "(context region: " in err


def _explanatory_csv(path, n, seed, explanatory):
    """A binary protected ``s``, output ``o`` and context ``state``, plus the
    explanatory column ``explanatory(rng, s)`` returns, as cells."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    o = (rng.random(n) < np.where(s == 1, 0.6, 0.4)).astype(int)
    state = rng.integers(0, 3, n)
    e = explanatory(rng, s)
    rows = ["s,o,state,e"] + [f"{'ab'[si]},{oi},{'ABC'[ci]},{ei}"
                              for si, oi, ci, ei in zip(s, o, state, e)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


EXPLANATORY_ROLES = ["--protected", "s", "--output", "o", "--context", "state"]


def test_explanatory_undefined_in_every_stratum_is_named(tmp_path, capsys):
    # e is x on every s=b row and y on every s=a row: each stratum holds one protected group
    path = _explanatory_csv(tmp_path / "d.csv", 2400, 0,
                            lambda rng, s: np.where(s == 1, "x", "y"))
    assert main(["testing", "--data", path, *EXPLANATORY_ROLES, "--explanatory", "e",
                 "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "uatest: global population untestable for protected attribute 's' and output 'o' "
        "on the test rows: DIFF undefined in every stratum of explanatory attribute 'e' "
        "with at least 10 rows\n")


def test_explanatory_with_only_small_strata_is_named(tmp_path, capsys):
    path = _explanatory_csv(tmp_path / "d.csv", 2400, 0,
                            lambda rng, s: [f"k{i // 5}" for i in range(len(s))])
    assert main(["testing", "--data", path, *EXPLANATORY_ROLES, "--explanatory", "e",
                 "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "uatest: global population untestable for protected attribute 's' and output 'o' "
        "on the test rows: every stratum of explanatory attribute 'e' has fewer than 10 rows\n")


DEGENERATE_EXPLANATORY = {
    "constant": lambda rng, s: ["c"] * len(s),
    "all missing": lambda rng, s: [""] * len(s),
    "one row per category": lambda rng, s: [f"k{i}" for i in range(len(s))],
    "unicode": lambda rng, s: rng.choice(["é", "中文", "🙂", "ß x"], len(s)),
    "mostly missing": lambda rng, s: np.where(rng.random(len(s)) < 0.05,
                                              rng.choice(["u", "v"], len(s)), ""),
    "one protected group per stratum": lambda rng, s: np.where(s == 1, "x", "y"),
    "continuous": lambda rng, s: [f"{v:.6f}" for v in rng.normal(size=len(s))],
}


@settings(max_examples=60, deadline=None, derandomize=True)
@example(case="mostly missing", n=200, seed=255)  # 2 training rows keep a value of e
@given(case=st.sampled_from(sorted(DEGENERATE_EXPLANATORY)),
       n=st.integers(200, 500), seed=st.integers(0, 2**16))
def test_degenerate_explanatory_exits_cleanly(case, n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = _explanatory_csv(tmp / "d.csv", n, seed, DEGENERATE_EXPLANATORY[case])
        common = ["--data", data, "--out", str(tmp / "r.txt")]
        sized = ["--seed", "1", "--min-size", "20", "--budget", "2"]
        state = str(tmp / "state.json")
        assert main(["testing", *common, *EXPLANATORY_ROLES, *sized, "--state", state]) == 0
        runs = (["testing", *common, *EXPLANATORY_ROLES, *sized, "--explanatory", "e"],
                ["debug", *common, "--state", state, "--explanatory", "e"])
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), (case, argv[0], code)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("uatest: "), lines
                assert "'e'" in lines[0], (case, argv[0], lines[0])


def test_discovery_names_a_protected_value_missing_from_training(tmp_path, capsys):
    # the schema declares s with values a and b, but no row has b
    labels = np.random.default_rng(0).integers(0, 2, (600, 2))
    rows = ["s,l1,l2,state"] + [f"a,{x},{y},{'ABC'[i % 3]}" for i, (x, y) in enumerate(labels)]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"s": {"kind": "categorical", "categories": ["a", "b"]}}))
    assert main(["discovery", "--data", str(path), "--schema", str(schema), "--protected", "s",
                 "--output", "l1,l2", "--context", "state", "--min-size", "50"]) == 2
    assert capsys.readouterr().err == (
        "uatest: discovery needs both values of protected attribute 's' in the training rows, "
        "but none has 'b'\n")


def test_discovery_rejects_continuous_explanatory_before_scoring(tmp_path, monkeypatch,
                                                                 capsys):
    from uatest import investigations
    rng = np.random.default_rng(1)
    cells = rng.integers(0, 2, (3, 400))
    x = rng.normal(size=400)
    rows = ["s,l1,l2,state,x"] + [f"{'ab'[s]},{l1},{l2},{'ABC'[i % 3]},{x[i]:.6f}"
                                  for i, (s, l1, l2) in enumerate(zip(*cells))]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(rows) + "\n")
    scored = []

    def counting(*args, score=investigations.logistic_label_scores):
        scored.append(args)
        return score(*args)

    monkeypatch.setattr(investigations, "logistic_label_scores", counting)
    assert main(["discovery", "--data", str(path), "--protected", "s", "--output", "l1,l2",
                 "--context", "state", "--explanatory", "x", "--min-size", "20"]) == 2
    assert capsys.readouterr().err == ("uatest: explanatory attribute 'x' is continuous; "
                                       "conditioning needs a categorical or ordinal attribute\n")
    assert scored == []


def _cell_effect_csv(path, n, seed):
    """A binary protected ``s`` and output ``o`` whose association varies
    over the cells of ``c0`` x ``c1``, plus two unrelated contexts: the tree
    registers many small contexts, and the global effect is strong."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    cols = rng.integers(0, 5, (4, n))
    effect = 0.15 + rng.uniform(-0.2, 0.2, 25)[cols[0] * 5 + cols[1]]
    o = (rng.random(n) < 0.3 + effect * s).astype(int)
    rows = ["s,o,c0,c1,c2,c3"] + [f"{'ab'[s[i]]},{o[i]}," + ",".join(f"k{c}" for c in cols[:, i])
                                  for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_large_family_draws_no_permutations(tmp_path, monkeypatch):
    # in a family of over 100 hypotheses, a resampled p of at least 1/1001
    # cannot pass 0.05 after Holm correction; the run decides every
    # significance and every reported corrected p from the Holm bounds and
    # draws no permutation, yet uses exactly the corrected p-values that
    # drawing every p and correcting them gives
    from uatest import cli, stats
    permutations, results = [], []
    for name in ("_fixed_margin_tables", "_corr_permutation_stats"):
        def counting(*args, draw=getattr(stats, name)):
            permutations.append(1)
            return draw(*args)
        monkeypatch.setattr(stats, name, counting)
    validate = cli.validate

    def keeping_validate(*args, **kwargs):
        results.append(validate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "validate", keeping_validate)
    out = tmp_path / "r.json"
    assert main(["testing", "--data", _cell_effect_csv(tmp_path / "d.csv", 12000, 3),
                 "--protected", "s", "--output", "o", "--context", "c0,c1,c2,c3",
                 "--min-size", "40", "--seed", "1", "--threads", "1",
                 "--format", "json", "--out", str(out)]) == 0
    (result,) = results
    family = [f.tested for f in result.findings]
    resampled = sum(t.method == stats.RESAMPLING for t in family)
    assert result.family_size == len(family) > 100 and resampled > 100
    assert permutations == []
    bounds = [t.corrected_p_bounds for t in family]
    exact = stats.holm_bonferroni([t.p for t in family])
    assert len(permutations) == resampled
    assert [t.corrected_p for t in family] == exact
    for f, (lo, hi), e in zip(result.findings, bounds, exact):
        assert lo <= e <= hi
        assert hi <= 0.05 or lo > 0.05  # the bounds decided significance
        assert f.rank is None or e <= 0.05
    (report,) = json.loads(out.read_text())["reports"]
    ranked = sorted((f for f in result.findings if f.rank is not None), key=lambda f: f.rank)
    shown = [f for f in result.findings if f.is_global] + ranked
    assert [obj["tested"]["corrected_p"] for obj in [report["global"]] + report["findings"]] == [
        f.tested.corrected_p for f in shown]


def _exits_cleanly(columns, culprit, commands):
    """Run each of ``commands`` on a CSV of ``columns`` (name to cells) with
    protected ``s``, output ``o`` or labels ``l1,l2``, and context ``state``.
    Each run exits 0 with a family of every hypothesis tested (every
    ``TestedMetric`` built), or 2 with one line naming ``culprit``."""
    from unittest import mock

    from uatest.stats import TestedMetric
    rows = [",".join(columns)] + [",".join(map(str, row)) for row in zip(*columns.values())]
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "d.csv", Path(tmp) / "r.json"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        common = ["--data", str(data), "--protected", "s", "--context", "state", "--seed", "1",
                  "--min-size", "20", "--format", "json", "--out", str(out)]
        runs = {"testing": ["testing", *common, "--output", "o"],
                "discovery": ["discovery", *common, "--output", "l1,l2"]}
        for argv in (runs[c] for c in commands):
            tested = []
            init = TestedMetric.__init__

            def counting(self, *args, **kwargs):
                init(self, *args, **kwargs)
                tested.append(self)  # only hypotheses that are testable

            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    mock.patch.object(TestedMetric, "__init__", counting):
                code = main(argv)
            assert code in (0, 2), (argv[0], code)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("uatest: "), lines
                assert f"'{culprit}'" in lines[0], (argv[0], lines[0])
            else:
                (report,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
                assert report["family_size"] == len(tested), argv[0]


DEGENERATE_PROTECTED = {
    "constant": lambda rng, n: ["a"] * n,
    "all missing": lambda rng, n: [""] * n,
    "single minority row": lambda rng, n: np.where(np.arange(n) == rng.integers(n), "b", "a"),
    "unicode pair": lambda rng, n: rng.choice(["é", "中文"], n),
    "unicode": lambda rng, n: rng.choice(["é", "中文", "🙂", "ß x"], n),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(DEGENERATE_PROTECTED)),
       n=st.integers(200, 500), seed=st.integers(0, 2**16))
def test_degenerate_protected_exits_cleanly(case, n, seed):
    rng = np.random.default_rng(seed)
    s = DEGENERATE_PROTECTED[case](rng, n)
    o, l1, l2 = rng.integers(0, 2, (3, n))
    state = ["ABC"[c] for c in rng.integers(0, 3, n)]
    _exits_cleanly({"s": s, "o": o, "l1": l1, "l2": l2, "state": state}, "s",
                   ("testing", "discovery"))


def _mostly_missing(values):
    return lambda rng, n: np.where(rng.random(n) < 0.03, rng.choice(values, n), "")


DEGENERATE_COLUMN = {
    ("o", "constant"): lambda rng, n: ["1"] * n,
    ("o", "all missing"): lambda rng, n: [""] * n,
    ("o", "single minority row"): lambda rng, n: np.where(np.arange(n) == rng.integers(n),
                                                          "1", "0"),
    ("o", "unicode"): lambda rng, n: rng.choice(["é", "中文", "🙂", "ß x"], n),
    ("o", "continuous"): lambda rng, n: [f"{v:.6f}" for v in rng.normal(size=n)],
    ("o", "mostly missing"): _mostly_missing(["0", "1"]),
    ("state", "constant"): lambda rng, n: ["A"] * n,
    ("state", "all missing"): lambda rng, n: [""] * n,
    ("state", "continuous"): lambda rng, n: [f"{v:.6f}" for v in rng.normal(size=n)],
    ("state", "all distinct"): lambda rng, n: [f"k{i}" for i in range(n)],
    ("state", "mostly missing"): _mostly_missing(["A", "B", "C"]),
    ("state", "unicode"): lambda rng, n: rng.choice(["é", "中文", "🙂", "ß x"], n),
}


@settings(max_examples=150, deadline=None, derandomize=True)
# dropping the rows that miss state left rows of one protected value, in
# discovery's training rows (seed 4) and in the test rows of testing (seed 12)
@example(case=("state", "mostly missing"), n=200, seed=4)
@example(case=("state", "mostly missing"), n=200, seed=12)
@given(case=st.sampled_from(sorted(DEGENERATE_COLUMN)),
       n=st.integers(200, 500), seed=st.integers(0, 2**16))
def test_degenerate_output_and_context_exit_cleanly(case, n, seed):
    rng = np.random.default_rng(seed)
    s, o, l1, l2 = rng.integers(0, 2, (4, n))
    columns = {"s": np.array(["a", "b"])[s], "o": o, "l1": l1, "l2": l2,
               "state": ["ABC"[c] for c in rng.integers(0, 3, n)]}
    column = case[0]
    columns[column] = DEGENERATE_COLUMN[case](rng, n)
    _exits_cleanly(columns, column, ("testing", "discovery") if column == "state" else
                   ("testing",))


@pytest.mark.parametrize("flag, content", [
    ("--state", "{not json"),
    ("--state", '{"version": 1}'),
    ("--schema", "gender: protected\n"),
    ("--schema", '["gender", "admitted"]'),
    ("--schema", '{"s": "categorical"}'),
    ("--schema", '{"gender": {"categories": "FM"}}'),
], ids=["state not json", "state without fields", "schema not json", "schema list",
        "schema entry not an object", "schema categories not a list"])
def test_malformed_state_or_schema_file_exits_2_naming_it(berkeley_csv, tmp_path, capsys,
                                                          flag, content):
    data, _ = berkeley_csv
    path = tmp_path / "malformed.json"
    path.write_text(content)
    if flag == "--state":
        argv = ["debug", "--data", data, "--state", str(path), "--explanatory", "department"]
    else:
        argv = ["testing", "--data", data, "--schema", str(path), "--protected", "gender",
                "--output", "admitted"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("uatest: "), lines
    assert str(path) in lines[0], lines[0]


@pytest.fixture()
def roles_csv(tmp_path):
    """Binary protected ``s``, output ``o``, labels ``l1,l2``, ground truth
    ``g``, and a three-valued context ``c``."""
    rng = np.random.default_rng(11)
    n = 800
    s = rng.choice(["a", "b"], n)
    o, l1, l2, g = rng.integers(0, 2, (4, n))
    c = rng.choice(["x", "y", "z"], n)
    rows = ["s,o,l1,l2,g,c"] + [",".join(map(str, r)) for r in zip(s, o, l1, l2, g, c)]
    path = tmp_path / "roles.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (["testing", "--protected", "s,s", "--output", "o"],
     "attribute 's' is named twice as protected"),
    (["discovery", "--protected", "s", "--output", "l1,l1"],
     "attribute 'l1' is named twice as label"),
    (["testing", "--protected", "s", "--output", "s"],
     "attribute 's' is named as both protected and output"),
    (["discovery", "--protected", "s", "--output", "l1,s"],
     "attribute 's' is named as both protected and label"),
    (["testing", "--protected", "s", "--output", "o", "--explanatory", "o"],
     "attribute 'o' is named as both output and explanatory"),
    (["testing", "--protected", "s", "--output", "o", "--explanatory", "s"],
     "attribute 's' is named as both protected and explanatory"),
    (["error-profile", "--protected", "s", "--output", "o", "--ground-truth", "o",
      "--error", "zero_one"],
     "attribute 'o' is named as both output and ground truth"),
    (["error-profile", "--protected", "g", "--output", "o", "--ground-truth", "g",
      "--error", "zero_one"],
     "attribute 'g' is named as both protected and ground truth"),
], ids=["protected twice", "label twice", "protected is output", "protected is label",
        "explanatory is output", "explanatory is protected", "ground truth is output",
        "ground truth is protected"])
def test_colliding_roles_exit_2_before_training(roles_csv, tmp_path, capsys, monkeypatch,
                                                argv, message):
    from uatest import investigations

    def no_tree(*args, **kwargs):
        raise AssertionError("a tree was trained")

    monkeypatch.setattr(investigations, "find_contexts", no_tree)
    out, state = tmp_path / "r.txt", tmp_path / "state.json"
    assert main([*argv, "--data", roles_csv, "--context", "c", "--min-size", "50",
                 "--seed", "1", "--out", str(out), "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"uatest: {message}\n"
    assert captured.out == ""
    assert not out.exists() and not state.exists()


def test_debug_rejects_protected_as_explanatory(roles_csv, tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["testing", "--data", roles_csv, "--protected", "s", "--output", "o",
                 "--context", "c", "--min-size", "50", "--budget", "2", "--seed", "1",
                 "--state", str(state), "--out", str(tmp_path / "r1.txt")]) == 0
    saved = state.read_bytes()
    capsys.readouterr()
    out = tmp_path / "r2.txt"
    assert main(["debug", "--data", roles_csv, "--state", str(state), "--explanatory", "s",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "uatest: attribute 's' is named as both protected and explanatory\n"
    assert not out.exists()
    assert state.read_bytes() == saved  # no test set spent


@pytest.mark.parametrize("metric", ["ratio", "nmi", "corr"])
def test_discovery_rejects_a_metric_other_than_diff(roles_csv, tmp_path, capsys, monkeypatch,
                                                    metric):
    from uatest import investigations

    def no_tree(*args, **kwargs):
        raise AssertionError("a tree was trained")

    monkeypatch.setattr(investigations, "find_contexts", no_tree)
    out = tmp_path / "r.txt"
    assert main(["discovery", "--data", roles_csv, "--protected", "s", "--output", "l1,l2",
                 "--context", "c", "--min-size", "50", "--metric", metric,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"uatest: discovery tests DIFF only, but the metric is set to "
                            f"{metric!r}\n")
    assert not out.exists()


def _flat_spec_layout(state: dict) -> dict:
    """``state`` in the flat-spec layout: the spec stores every kind's
    settings, at their defaults where its kind ignores them, and each unit
    stores its label, the output it tests for discovery and None otherwise."""
    spec = state["spec"]
    units = [{"label": u["bound"]["output"] if spec["kind"] == "discovery" else None, **u}
             for u in state["units"]]
    return {**state, "units": units,
            "spec": {"top_k": 35, "ground_truth": None, "error_kind": "absolute", **spec}}


def _older_state_layout(state: dict, output_display: str) -> dict:
    """``state`` in the older layout: the flat-spec layout, where each unit
    also names its protected attribute and output, the report's output name
    is stored beside the training counts, and the spec has no explanatory
    attribute."""
    older = {}
    for key, value in _flat_spec_layout(state).items():
        if key == "spec":
            value = {k: v for k, v in value.items() if k != "explanatory"}
        elif key == "units":
            value = [{"protected": u["bound"]["protected"], "output": u["bound"]["output"], **u}
                     for u in value]
        older[key] = value
        if key == "dropped_train":
            older["output_display"] = output_display
    return older


ROLE_RUNS = [
    (["testing", "--protected", "s", "--output", "o"], "o", set()),
    (["discovery", "--protected", "s", "--output", "l1,l2"], "Labels", {"top_k"}),
    (["error-profile", "--protected", "s", "--output", "o", "--ground-truth", "g",
      "--error", "zero_one"], "0/1 Error(o)", {"ground_truth", "error_kind"}),
]


@pytest.mark.parametrize("argv, output_display, own", ROLE_RUNS,
                         ids=["testing", "discovery", "error-profile"])
def test_older_state_layout_debugs_to_the_same_report(roles_csv, tmp_path, argv,
                                                      output_display, own):
    saved = tmp_path / "saved.json"
    assert main([*argv, "--data", roles_csv, "--context", "c", "--min-size", "50",
                 "--budget", "2", "--seed", "1", "--state", str(saved),
                 "--out", str(tmp_path / "r.txt")]) == 0
    state = json.loads(saved.read_text())
    assert state["spec"]["explanatory"] is None
    assert {"top_k", "ground_truth", "error_kind"} & set(state["spec"]) == own
    assert not {"protected", "output", "label"} & set(state["units"][0])
    flat, older = tmp_path / "flat.json", tmp_path / "older.json"
    flat.write_text(json.dumps(_flat_spec_layout(state), indent=2))
    older.write_text(json.dumps(_older_state_layout(state, output_display), indent=2))
    reports = []
    for path in (saved, flat, older):
        out = tmp_path / f"debug-{path.stem}.json"
        assert main(["debug", "--data", roles_csv, "--state", str(path), "--explanatory", "c",
                     "--format", "json", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["reports"][0]["output"] == output_display


def test_a_state_that_still_holds_reports_loads(roles_csv, tmp_path):
    # states once stored the run's reports, which nothing reads; debug reads
    # such a state and rewrites it in the current layout, without them
    saved, report = tmp_path / "saved.json", tmp_path / "report.json"
    assert main(["testing", "--data", roles_csv, "--protected", "s", "--output", "o",
                 "--context", "c", "--min-size", "50", "--budget", "2", "--seed", "1",
                 "--format", "json", "--state", str(saved), "--out", str(report)]) == 0
    state = json.loads(saved.read_text())
    assert "reports" not in state
    older = tmp_path / "older.json"
    older.write_text(json.dumps({**state, **json.loads(report.read_text())}, indent=2))
    outs = []
    for path in (saved, older):
        out = tmp_path / f"debug-{path.stem}.json"
        assert main(["debug", "--data", roles_csv, "--state", str(path), "--explanatory", "c",
                     "--format", "json", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert older.read_bytes() == saved.read_bytes()
    assert json.loads(saved.read_text()) == {
        **state, "datasource": {**state["datasource"], "consumed": 2}}


@pytest.mark.parametrize("run, setting, value, message", [
    (0, "top_k", 0, "a spec of kind 'testing' takes no setting 'top_k'"),
    (0, "error_kind", "bogus", "a spec of kind 'testing' takes no setting 'error_kind'"),
    (1, "ground_truth", "g", "a spec of kind 'discovery' takes no setting 'ground_truth'"),
    (1, "error_kind", "zero_one", "a spec of kind 'discovery' takes no setting 'error_kind'"),
    (2, "top_k", 5, "a spec of kind 'error_profiling' takes no setting 'top_k'"),
    (0, "kind", "nope", "unknown investigation kind 'nope'"),
], ids=["testing top_k", "testing error_kind", "discovery ground_truth",
        "discovery error_kind", "error_profiling top_k", "unknown kind"])
def test_state_spec_setting_its_kind_does_not_take_exits_2(roles_csv, tmp_path, capsys, run,
                                                           setting, value, message):
    state = tmp_path / "state.json"
    assert main([*ROLE_RUNS[run][0], "--data", roles_csv, "--context", "c", "--min-size", "50",
                 "--budget", "2", "--seed", "1", "--state", str(state),
                 "--out", str(tmp_path / "r.txt")]) == 0
    edited = json.loads(state.read_text())
    edited["spec"][setting] = value
    state.write_text(json.dumps(edited))
    capsys.readouterr()
    out = tmp_path / "debug.txt"
    assert main(["debug", "--data", roles_csv, "--state", str(state), "--explanatory", "c",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"uatest: state file {state}: {message}\n"
    assert captured.out == "" and not out.exists()
    assert json.loads(state.read_text()) == edited  # no test set spent


@pytest.mark.parametrize("error, output, message", [
    ("zero_one", "pred", "zero_one error requires categorical prediction and truth columns, "
                         "but prediction 'pred' is continuous and truth 'truth' is continuous"),
    ("absolute", "o", "absolute error requires scalar (continuous or ordinal) prediction and "
                      "truth columns, but prediction 'o' is categorical"),
], ids=["zero_one on continuous", "absolute on categorical"])
def test_error_of_the_wrong_column_kind_exits_2_naming_the_column(tmp_path, capsys, error,
                                                                  output, message):
    rng = np.random.default_rng(5)
    n = 400
    pred, truth = rng.normal(size=(2, n))
    rows = ["s,o,pred,truth,c"] + [f"{'ab'[i % 2]},{i % 3 % 2},{p:.6f},{t:.6f},{'xyz'[i % 3]}"
                                   for i, (p, t) in enumerate(zip(pred, truth))]
    path = tmp_path / "errors.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.txt"
    assert main(["error-profile", "--data", str(path), "--protected", "s", "--output", output,
                 "--ground-truth", "truth", "--error", error, "--context", "c",
                 "--min-size", "50", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"uatest: {message}\n"
    assert captured.out == "" and not out.exists()


def test_absolute_error_of_a_categorical_protected_hints_at_fixes_that_work(tmp_path, capsys):
    # the absolute error is derived, so no schema can pin it categorical; the
    # hint names the fixes that work, and following it makes the run go
    rng = np.random.default_rng(6)
    n = 600
    age = rng.uniform(20, 70, n)
    truth = rng.normal(size=n)
    pred = truth + rng.normal(scale=0.1 + age / 70, size=n)
    rows = ["s,age,pred,truth,c"] + [f"{'ab'[i % 2]},{a:.3f},{p:.6f},{t:.6f},{'xyz'[i % 3]}"
                                     for i, (a, p, t) in enumerate(zip(age, pred, truth))]
    path = tmp_path / "errors.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.txt"
    argv = ["error-profile", "--data", str(path), "--output", "pred", "--ground-truth", "truth",
            "--error", "absolute", "--context", "c", "--min-size", "50", "--out", str(out)]
    assert main([*argv, "--protected", "s"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("uatest: ")
    assert "'Abs. Error(pred)' (continuous)" in lines[0]
    assert "--schema" not in lines[0]
    assert "scalar protected attribute (CORR)" in lines[0] and "--error zero_one" in lines[0]
    assert captured.out == "" and not out.exists()
    assert main([*argv, "--protected", "age"]) == 0


def test_bench_commands_take_no_report_options(tmp_path, capsys):
    # both always write CSV, and tree-vs-itemsets has no confidence level;
    # --threads stays, because the benchmark harness appends it to every
    # invocation
    out = tmp_path / "out.csv"
    for argv in (["bench", "--n", "20000", "--plants", "3", "--size", "400", "--format", "json"],
                 ["tree-vs-itemsets", "--n", "6000", "--attrs", "8", "--min-size", "300",
                  "--format", "json"],
                 ["tree-vs-itemsets", "--n", "6000", "--attrs", "8", "--min-size", "300",
                  "--conf", "0.5"]):
        assert main([*argv, "--out", str(out)]) == 1, argv
        assert not out.exists() and capsys.readouterr().out == ""
    required = {"testing": ["--data", "d.csv"], "discovery": ["--data", "d.csv"],
                "error-profile": ["--data", "d.csv", "--ground-truth", "g"],
                "debug": ["--data", "d.csv", "--state", "s.json", "--explanatory", "e"],
                "bench": [], "tree-vs-itemsets": []}
    for cmd, argv in required.items():
        assert build_parser().parse_args([cmd, *argv, "--threads", "2"]).threads == 2
