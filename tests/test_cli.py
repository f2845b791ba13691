"""Command-line behavior: exit codes, report formats, determinism, export."""

from __future__ import annotations

import errno
import importlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auglink import cli
from auglink.augment import CrossingCircle
from auglink.cli import FileResult, RunConfig, analyze, build_parser, main, result_to_entry
from auglink.diagram import Diagram, parse_document
from auglink.errors import ExportError
from auglink.geometry import (
    Certificate,
    CertificateReport,
    Constants,
    GeodesicCertificate,
    SlopeEstimate,
)
from auglink.report_schema import REPORT_SCHEMA
from auglink.twist import resolve_selection

from braid import braid_closure
from corpus import FIGURE8, GOLDEN, GOLDEN_TWIST, TREFOIL, UNKNOT0


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(*inputs, **kwargs) -> tuple[int, str]:
    out = io.StringIO()
    status = analyze(RunConfig(inputs=tuple(inputs), **kwargs), stdout=out)
    return status, out.getvalue()


def _run_json(*inputs, **kwargs):
    status, text = _run(*inputs, json_output=True, **kwargs)
    return status, json.loads(text)


def test_figure8_without_attestation(tmp_path):
    path = _write(tmp_path, "fig8.json", {"name": "figure-8", "pd": FIGURE8})
    status, entries = _run_json(path)
    assert status == 0
    (entry,) = entries
    assert entry["ok"] and entry["name"] == "figure-8"
    report = entry["report"]
    assert report["tw"] == 2
    assert [c["c"] for c in report["circles"]] == [2, 2]
    hyperbolic = report["certificates"]["hyperbolic_6thm"]
    assert not hyperbolic["certified"]
    reasons = " ".join(hyperbolic["reasons"])
    assert "attestation" in reasons and "circle" in reasons


def test_geodesic_certified_end_to_end(tmp_path):
    pd, signs = braid_closure([1] * 58, 2)
    path = _write(tmp_path, "column58.json", {"pd": pd, "signs": signs})
    status, entries = _run_json(path, attest_hyperbolic=True)
    assert status == 0
    report = entries[0]["report"]
    assert report["tw"] == 1
    assert report["circles"][0]["c"] == 58
    geo = report["certificates"]["geodesic_hk"]
    assert geo["certified"]
    assert geo["sum_of_inverses"] == "1/58"
    assert geo["reasons"] == []


def test_annotated_region_through_the_cli(tmp_path):
    from auglink.twist import detect_bigon_chains

    diagram = parse_document(json.dumps(FIGURE8)).diagram
    ids = sorted(detect_bigon_chains(diagram)[0].crossing_ids)
    path = _write(
        tmp_path,
        "annotated.json",
        {"pd": FIGURE8, "regions": [{"crossings": ids, "strands": 2, "half_twists": 2}]},
    )
    status, entries = _run_json(path)
    assert status == 0
    assert entries[0]["ok"]
    assert entries[0]["report"]["tw"] == 2


def test_reports_validate_against_shipped_schema(tmp_path):
    good = _write(tmp_path, "good.json", {"name": "trefoil", "pd": TREFOIL})
    bad = str(tmp_path / "missing.json")
    trivial = _write(tmp_path, "trivial.json", UNKNOT0)
    status, entries = _run_json(good, bad, trivial, attest_hyperbolic=True)
    assert status == 2  # one input failed
    jsonschema.validate(entries, REPORT_SCHEMA)
    assert [e["ok"] for e in entries] == [True, False, True]
    assert entries[2]["report"]["tw"] == 0
    assert entries[2]["report"]["volume"] is None


def test_processing_continues_after_parse_error(tmp_path):
    bad = _write(tmp_path, "bad.json", {"pd": [[1, 2, 3]]})
    good = _write(tmp_path, "good.json", TREFOIL)
    status, entries = _run_json(bad, good)
    assert status == 2
    assert not entries[0]["ok"] and "error" in entries[0]
    assert entries[1]["ok"]
    assert entries[1]["report"]["tw"] == 1


def test_undecodable_json_is_reported_per_file(tmp_path):
    # json.loads raises RecursionError and ValueError, not JSONDecodeError, here.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    long_int = tmp_path / "long_int.json"
    long_int.write_text("[[1, 1, 2, " + "9" * 5000 + "]]", encoding="utf-8")
    good = _write(tmp_path, "good.json", TREFOIL)
    status, entries = _run_json(str(deep), str(long_int), good)
    assert status == 2
    assert [e["ok"] for e in entries] == [False, False, True]
    assert all("not valid JSON" in e["error"] for e in entries[:2])
    assert entries[2]["report"]["tw"] == 1


def test_split_diagram_is_an_input_error(tmp_path):
    path = _write(tmp_path, "split.json", [[1, 1, 2, 2], [3, 3, 4, 4]])
    status, entries = _run_json(path)
    assert status == 2
    assert not entries[0]["ok"]
    assert "split" in entries[0]["error"]


def test_link_split_by_reduction_is_an_input_error(tmp_path):
    # R-II reduction cancels the sigma1 sigma1^-1 pair, and with it every
    # crossing of the first strand: the closure is a split link.
    word = [1, -1] + [2] * 7 + [-3] * 7 + [2] * 7 + [-3] * 7
    pd, signs = braid_closure(word, 4)
    path = _write(tmp_path, "split_by_r2.json", {"pd": pd, "signs": signs})
    status, entries = _run_json(path, attest_hyperbolic=True)
    assert status == 2
    assert not entries[0]["ok"]
    assert "split" in entries[0]["error"]


def test_json_reports_stream_as_one_array(tmp_path):
    paths = [_write(tmp_path, f"{name}.json", {"pd": pd}) for name, pd in sorted(GOLDEN.items())]
    paths.append(str(tmp_path / "missing.json"))
    status, text = _run(*paths, json_output=True)
    assert status == 2
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert _run(json_output=True) == (0, "[]\n")


def test_byte_identical_reports(tmp_path):
    path = _write(tmp_path, "fig8.json", {"pd": FIGURE8})
    first = _run(path, json_output=True)
    second = _run(path, json_output=True)
    assert first == second
    text_first = _run(path)
    text_second = _run(path)
    assert text_first == text_second


def test_text_mode_uses_six_significant_digits(tmp_path):
    path = _write(tmp_path, "fig8.json", {"name": "figure-8", "pd": FIGURE8})
    status, text = _run(path)
    assert status == 0
    assert "tw: 2" in text
    assert "7.32772" in text  # 2 v8 to 6 significant digits
    assert "2.06155" in text  # sqrt(4.25)
    assert "figure-8" in text


def test_text_mode_reports_errors_per_file(tmp_path):
    bad = _write(tmp_path, "bad.json", {"pd": 5})
    status, text = _run(bad)
    assert status == 2
    assert "error:" in text


def test_trivial_diagram_text_mode(tmp_path):
    path = _write(tmp_path, "unknot.json", UNKNOT0)
    status, text = _run(path)
    assert status == 0
    assert "tw: 0" in text
    assert "volume: n/a" in text


def test_export_augmented_files(tmp_path):
    out_dir = tmp_path / "exports"
    paths = {
        name: _write(tmp_path, f"{name}.json", {"name": name, "pd": pd})
        for name, pd in GOLDEN.items()
    }
    status, entries = _run_json(
        *(paths[name] for name in sorted(GOLDEN)), export_dir=str(out_dir)
    )
    assert status == 0
    for entry in entries:
        name = entry["name"]
        export_path = entry["export"]
        assert export_path.endswith(f"{name}.augmented.json")
        exported = parse_document((out_dir / f"{name}.augmented.json").read_text()).diagram
        original_comps, tw, _ = GOLDEN_TWIST[name]
        assert exported.link_component_count == original_comps + tw


def test_failed_export_keeps_the_report(tmp_path):
    # Orientation-inconsistent signs parse and analyze, but cannot be drawn.
    out_dir = tmp_path / "exports"
    path = _write(tmp_path, "kink.json", {"pd": [[1, 1, 2, 2]], "signs": [-1]})
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    jsonschema.validate(entries, REPORT_SCHEMA)
    (entry,) = entries
    assert entry["ok"] and entry["report"]["tw"] == 1
    assert "export" not in entry
    assert [w.startswith("export failed: ") for w in entry["warnings"]] == [True]
    status, text = _run(path, export_dir=str(out_dir))
    assert status == 0
    assert "warning: export failed: " in text


def test_export_with_the_wrong_component_count_is_refused(tmp_path):
    # The closure of s3 s2 s2 s1 s1 s3 s2 s3 on 4 strands.  Crossings 0-5
    # pass as a full twist of 3 strands but are none: the box drawn for them
    # has 4 link components, not the input's 2 plus one per circle.
    out_dir = tmp_path / "exports"
    path = _write(tmp_path, "window.json", {
        "pd": [[3, 5, 6, 4], [2, 7, 8, 5], [7, 9, 10, 8], [1, 11, 12, 9], [11, 1, 14, 12],
               [10, 15, 16, 6], [14, 2, 18, 15], [18, 3, 4, 16]],
        "signs": [1] * 8,
        "regions": [{"crossings": [0, 1, 2, 3, 4, 5], "strands": 3, "half_twists": 2}],
    })
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    (entry,) = entries
    assert entry["ok"] and entry["report"]["tw"] == 3
    assert "export" not in entry
    assert entry["warnings"] == [
        "export failed: drawing has 4 link components, expected 5 "
        "(the input's plus one per circle)"
    ]
    assert not (out_dir / "window.augmented.json").exists()


_augment_module = importlib.import_module("auglink.augment")


def _strand_out_port(graph, stub):
    return next(p for p in (4 * stub, 4 * stub + 2) if graph.role[p] & 1)


@pytest.mark.parametrize(
    "pd, other_port, error",
    [
        # The circle's wire crossed with a strand's: no longer planar.
        (TREFOIL, lambda graph, under: _strand_out_port(graph, under[0]),
         "drawing is not planar: Euler formula violated"),
        # The circle wired into crossing 0, which the figure-8's even chain splices out.
        (FIGURE8, lambda graph, under: 2, "unwired ports remain: "),
    ],
    ids=["not-planar", "wired-to-a-spliced-crossing"],
)
def test_miswired_export_is_an_export_failure(tmp_path, monkeypatch, pd, other_port, error):
    wire_circle = _augment_module._wire_circle

    def crossed(graph, over, under):
        # Draw the circle, then swap the far ends of two out-ports' wires.
        wire_circle(graph, over, under)
        a, b = 4 * over[0] + _augment_module._S, other_port(graph, under)
        far_a, far_b = graph.mates[a], graph.mates[b]
        graph.disconnect(a)
        graph.disconnect(b)
        graph.connect(a, far_b)
        graph.connect(b, far_a)

    monkeypatch.setattr(_augment_module, "_wire_circle", crossed)
    path = _write(tmp_path, "knot.json", {"pd": pd})
    reduced, selection = resolve_selection(Diagram.from_pd(pd))
    with pytest.raises(ExportError, match=f"^{error}"):
        _augment_module.export_augmented_diagram(_augment_module.augment(reduced, selection))
    result = cli.analyze_file(path, RunConfig(inputs=(path,), export_dir=str(tmp_path / "out")))
    assert result.ok and result.report is not None and result.export_path is None
    (warning,) = result.warnings
    assert warning.startswith(f"export failed: {error}")


def test_failed_export_write_keeps_the_report(tmp_path):
    # The export directory is an existing file, so writing the export fails.
    out_dir = tmp_path / "exports"
    out_dir.write_text("not a directory", encoding="utf-8")
    path = _write(tmp_path, "trefoil.json", {"pd": TREFOIL})
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    jsonschema.validate(entries, REPORT_SCHEMA)
    (entry,) = entries
    assert entry["ok"] and entry["report"]["tw"] == 1
    assert "export" not in entry
    (warning,) = entry["warnings"]
    assert warning.startswith("export failed: [Errno 17] File exists")
    assert out_dir.read_text(encoding="utf-8") == "not a directory"


def _fill_disk_halfway(monkeypatch) -> None:
    """The disk fills up halfway through the export file."""
    real_write = os.write

    def write_half(fd, data):
        real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write_half)


def test_failed_export_write_leaves_no_partial_file(tmp_path, monkeypatch):
    out_dir = tmp_path / "exports"
    path = _write(tmp_path, "trefoil.json", {"pd": TREFOIL})
    _fill_disk_halfway(monkeypatch)
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    (entry,) = entries
    assert entry["ok"] and "export" not in entry
    assert entry["warnings"] == ["export failed: [Errno 28] No space left on device"]
    assert list(out_dir.iterdir()) == []


def test_failed_export_write_removes_a_longer_stale_file(tmp_path, monkeypatch):
    # The write lands on an older, longer export: no half-overwritten file is left.
    out_dir = tmp_path / "exports"
    out_dir.mkdir()
    (out_dir / "trefoil.augmented.json").write_text("x" * 10_000, encoding="utf-8")
    path = _write(tmp_path, "trefoil.json", {"pd": TREFOIL})
    _fill_disk_halfway(monkeypatch)
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    (entry,) = entries
    assert entry["ok"] and "export" not in entry
    assert entry["warnings"] == ["export failed: [Errno 28] No space left on device"]
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("stale", ["x" * 100_000, "{}"], ids=["longer", "shorter"])
def test_export_rewrites_a_stale_file_in_place(tmp_path, stale):
    paths = [_write(tmp_path, f"{name}.json", {"name": name, "pd": pd})
             for name, pd in sorted(GOLDEN.items())]
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    rerun.mkdir()
    for path in paths:
        (rerun / f"{pathlib.Path(path).stem}.augmented.json").write_text(stale, encoding="utf-8")
    runs = []
    for out_dir in (fresh, rerun):
        status, text = _run(*paths, json_output=True, export_dir=str(out_dir))
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        runs.append((status, text.replace(str(out_dir), "DIR"), files))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == len(paths)


@pytest.mark.parametrize("export_dir", ["", ".", "./", "out", "./out/", "a//b/./c", "/", "//x"])
def test_export_paths_are_spelled_as_pathlib_joins_them(export_dir):
    inputs = ("x.json", "a/y.tar.json", ".json", "b/x.json", "z", "c/x.")
    assert cli._export_targets(inputs, export_dir) == [
        (str(pathlib.Path(export_dir) / (pathlib.Path(p).stem + ".augmented.json")), owner)
        for p, owner in zip(inputs, (None, None, None, "x.json", None, None))
    ]


def test_export_path_belongs_to_its_first_input(tmp_path):
    # a/x.json and b/x.json both export to DIR/x.augmented.json.
    out_dir = tmp_path / "exports"
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    first = _write(tmp_path / "a", "x.json", {"name": "trefoil", "pd": TREFOIL})
    second = _write(tmp_path / "b", "x.json", {"name": "fig8", "pd": FIGURE8})
    third = str(tmp_path / "c" / "x.json")  # missing: its report fails before any export
    status, entries = _run_json(first, second, third, export_dir=str(out_dir))
    assert status == 2
    jsonschema.validate(entries, REPORT_SCHEMA)
    export = out_dir / "x.augmented.json"
    assert entries[0]["export"] == str(export) and "warnings" not in entries[0]
    assert entries[1]["ok"] and entries[1]["report"]["tw"] == 2
    assert "export" not in entries[1]
    assert entries[1]["warnings"] == [f"export failed: {export} is the export of {first}"]
    assert not entries[2]["ok"]
    assert [p.name for p in out_dir.iterdir()] == ["x.augmented.json"]
    assert json.loads(export.read_text(encoding="utf-8"))["name"] == "trefoil-augmented"
    # The path stays with the first input even when that input writes nothing.
    status, entries = _run_json(third, second, export_dir=str(tmp_path / "other"))
    assert entries[1]["warnings"] == [
        f"export failed: {tmp_path / 'other' / 'x.augmented.json'} is the export of {third}"
    ]
    assert not (tmp_path / "other").exists()
    status, text = _run(first, second, export_dir=str(out_dir))
    assert f"warning: export failed: {export} is the export of {first}" in text


def test_trivial_diagram_exports_nothing(tmp_path):
    out_dir = tmp_path / "exports"
    path = _write(tmp_path, "unknot.json", UNKNOT0)
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    assert "export" not in entries[0]
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_strict_flag_rejects_unknown_keys(tmp_path):
    path = _write(tmp_path, "extra.json", {"pd": TREFOIL, "comment": "hello"})
    status, entries = _run_json(path, strict=True)
    assert status == 2
    assert "unknown" in entries[0]["error"]
    status, entries = _run_json(path)
    assert status == 0
    assert any("comment" in w for w in entries[0]["warnings"])


def test_main_wires_flags(tmp_path, capsys):
    path = _write(tmp_path, "fig8.json", {"pd": FIGURE8})
    status = main(["analyze", path, "--json", "--attest-hyperbolic"])
    captured = capsys.readouterr()
    assert status == 0
    entries = json.loads(captured.out)
    reasons = entries[0]["report"]["certificates"]["hyperbolic_6thm"]["reasons"]
    assert not any("attestation" in r for r in reasons)


def test_empty_file_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze"])
    assert excinfo.value.code == 2


def test_parser_knows_all_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["analyze", "a.json", "b.json", "--json", "--attest-hyperbolic",
         "--export-augmented", "out", "--strict"]
    )
    assert args.files == ["a.json", "b.json"]
    assert args.json and args.attest_hyperbolic and args.strict
    assert args.export_augmented == "out"


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # Start-up is most of a one-diagram run, and these two modules, plus a
    # class built by ``exec`` for each record, were a quarter of it.
    # -S: no site hooks, so only what ``import auglink.cli`` loads is seen.
    code = "import sys, auglink.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


# ----------------------------------------------------------------------------
# Files split over forked worker processes
# ----------------------------------------------------------------------------


def _census(tmp_path) -> list[str]:
    """98 inputs, so four chunks: braid closures, and among them, over three
    chunks, golden diagrams, an annotated region, missing, malformed and
    split files, and a second input with the export path of one in chunk 0."""
    rng = random.Random(11)
    paths = []
    for i in range(88):
        signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        word = [1, 2] + [rng.choice((1, 2)) for _ in range(rng.randrange(2, 10))]
        pd, pd_signs = braid_closure([g * signs[g - 1] for g in word], 3)
        doc = {"name": f"b{i}", "pd": pd, "signs": pd_signs}
        paths.append(_write(tmp_path, f"b{i:03d}.json", doc))
    (tmp_path / "sub").mkdir()
    special = [
        _write(tmp_path, "unknot.json", UNKNOT0),
        str(tmp_path / "missing.json"),
        _write(tmp_path, "malformed.json", {"pd": [[1, 2, 3]]}),
        _write(tmp_path, "split.json", [[1, 1, 2, 2], [3, 3, 4, 4]]),
        _write(tmp_path, "annotated.json", {
            "pd": TREFOIL, "regions": [{"crossings": [0, 1, 2], "strands": 2, "half_twists": 3}]}),
        _write(tmp_path / "sub", "b005.json", {"name": "clash", "pd": FIGURE8}),
    ] + [_write(tmp_path, f"{name}.json", {"name": name, "pd": pd}) for name, pd in GOLDEN.items()]
    for k, path in enumerate(special):
        paths.insert(9 * k + 5, path)
    return paths


def _log_worker_exits(monkeypatch, log: pathlib.Path) -> None:
    """Append the status of every ``os._exit`` call, from any process, to ``log``."""
    real_exit = os._exit

    def logged_exit(status):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{status}\n")
        real_exit(status)

    monkeypatch.setattr(os, "_exit", logged_exit)


@pytest.mark.parametrize("json_output", [True, False])
@pytest.mark.parametrize("export", [False, True])
def test_workers_give_the_bytes_of_one_process(tmp_path, monkeypatch, json_output, export):
    inputs = _census(tmp_path)
    assert len(inputs) > 3 * cli._CHUNK
    exits = tmp_path / "exits.log"
    _log_worker_exits(monkeypatch, exits)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    runs = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):  # with 2, the worker has two chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out_dir = tmp_path / f"exports{len(cpus)}"
        status, text = _run(*inputs, json_output=json_output,
                            export_dir=str(out_dir) if export else None)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if export else {}
        runs.append((status, text.replace(str(out_dir), "DIR"), files))
    assert len(forks) == 1 + 2
    # A worker may be killed once its last chunk is sent, before it logs its exit.
    assert set(exits.read_text(encoding="utf-8").split()) <= {"0"}
    assert runs[0] == runs[1] == runs[2]
    status, text, files = runs[0]
    assert status == 2
    assert "clash" in text
    assert ("b005.augmented.json is the export of" in text) == export
    assert bool(files) == export
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


@pytest.mark.parametrize("index, raised, expected, message", [
    (3, RuntimeError, RuntimeError, "boom"),  # in the parent's own chunk
    (40, RuntimeError, RuntimeError, "worker ended"),  # in the worker's chunk
    (3, KeyboardInterrupt, KeyboardInterrupt, "boom"),
    (40, KeyboardInterrupt, RuntimeError, "worker ended"),
])
def test_uncaught_error_stops_the_run_and_reaps_workers(
    tmp_path, monkeypatch, capfd, index, raised, expected, message
):
    inputs = [_write(tmp_path, f"t{i:02d}.json", {"pd": TREFOIL}) for i in range(80)]
    exits = tmp_path / "exits.log"
    _log_worker_exits(monkeypatch, exits)
    real = cli.analyze_file

    def flaky(path, config, export_owner=None):
        if path == inputs[index]:
            raise raised("boom")
        return real(path, config, export_owner)

    monkeypatch.setattr(cli, "analyze_file", flaky)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = io.StringIO()
    with pytest.raises(expected, match=message):
        analyze(RunConfig(inputs=tuple(inputs), json_output=True), stdout=out)
    assert not out.getvalue().endswith("]\n")  # no short array passes for a whole one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if index >= cli._CHUNK:  # in the worker's chunk
        assert exits.read_text(encoding="utf-8") == "1\n"
        if raised is RuntimeError:
            assert "RuntimeError: boom" in capfd.readouterr().err  # the worker's traceback


def test_closed_stdout_reaps_workers(tmp_path, monkeypatch):
    inputs = [_write(tmp_path, f"t{i:02d}.json", {"pd": TREFOIL}) for i in range(100)]

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with pytest.raises(BrokenPipeError):
        analyze(RunConfig(inputs=tuple(inputs), json_output=True), stdout=ClosedPipe())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ----------------------------------------------------------------------------
# The fixed-shape writer against json.dumps
# ----------------------------------------------------------------------------


def reference_entry(result: FileResult) -> dict:
    """The entry as a dict, in the shape the shipped schema describes."""
    entry: dict = {"file": result.file, "ok": result.ok}
    if not result.ok:
        entry["error"] = result.error or "unknown error"
        return entry
    report = result.report
    geo = report.geodesic_circles
    volume = None
    if report.vol_augmentation_lb is not None:
        volume = {
            "augmentation_lb": report.vol_augmentation_lb,
            "euler_char_cut": report.euler_char_cut,
        }
        if report.vol_filled_lb is not None:
            volume["filled_lb"] = report.vol_filled_lb
    consts = report.constants
    entry["name"] = result.name
    entry["report"] = {
        "hypotheses": list(report.hypotheses),
        "tw": report.tw,
        "circles": [
            {
                "id": circle.id,
                "m": circle.strand_count,
                "c": estimate.c,
                "epsilon": circle.epsilon,
                "n": circle.filling_n,
                "slope_length_lb": estimate.length_lb,
                "normalized_length_lb": estimate.normalized_lb,
            }
            for circle, estimate in zip(report.circles, report.estimates)
        ],
        "certificates": {
            "hyperbolic_6thm": {
                "certified": report.hyperbolic.certified,
                "reasons": list(report.hyperbolic.reasons),
            },
            "geodesic_hk": {
                "certified": geo.certified,
                "sum_of_inverses": str(geo.sum_of_inverses),
                "threshold": str(geo.threshold),
                "reasons": list(geo.reasons),
            },
        },
        "volume": volume,
        "constants": {"v8": consts.v8, "two_pi": consts.two_pi, "hk": consts.hk,
                      "six": consts.six},
    }
    if result.warnings:
        entry["warnings"] = list(result.warnings)
    if result.export_path is not None:
        entry["export"] = result.export_path
    return entry


# Quotes, backslashes, control characters, non-ASCII and lone surrogates.
_texts = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\n\t/é€\U0001f600\ud800\udfff\u2028')
    | st.characters(exclude_categories=()),
    max_size=12,
)
_floats = st.sampled_from([0.0, -0.0, 1e300, 5e-324, -1e-310, 1e16, 1e-7]) | st.floats()
_counts = st.integers(-(10**20), 10**20)
_reasons = st.lists(_texts, max_size=3).map(tuple)


@st.composite
def _reports(draw):
    circles = draw(st.lists(st.tuples(_counts, _counts, _counts, _counts), max_size=3))
    augmentation = draw(st.none() | _floats)
    return CertificateReport(
        hypotheses=tuple(draw(st.lists(_texts, max_size=3))),
        tw=draw(_counts),
        circles=tuple(CrossingCircle(*c) for c in circles),
        estimates=tuple(
            SlopeEstimate(draw(_counts), draw(_floats), draw(_floats)) for _ in circles
        ),
        hyperbolic=Certificate(draw(st.booleans()), draw(_reasons)),
        geodesic_circles=GeodesicCertificate(
            draw(st.booleans()), draw(st.fractions()), draw(st.fractions()), draw(_reasons)
        ),
        vol_augmentation_lb=augmentation,
        vol_filled_lb=None if augmentation is None else draw(st.none() | _floats),
        euler_char_cut=None if augmentation is None else draw(_counts),
        constants=Constants(*(draw(_floats) for _ in range(4))),
    )


_results = st.builds(
    FileResult, file=_texts, ok=st.just(False), error=st.none() | _texts
) | st.builds(
    FileResult,
    file=_texts,
    ok=st.just(True),
    name=st.none() | _texts,
    report=_reports(),
    warnings=_reasons,
    export_path=st.none() | _texts,
)


@given(st.lists(_results, max_size=2))
@example([FileResult(file="e", ok=False, error="bad \ud800 \"x\"")])
@settings(max_examples=200, deadline=None)
def test_writer_matches_json_dumps(results):
    expected = json.dumps([reference_entry(r) for r in results], indent=2, sort_keys=True)
    written = "".join(
        ("[\n  " if i == 0 else ",\n  ") + result_to_entry(r) for i, r in enumerate(results)
    )
    assert written + ("\n]" if results else "[]") == expected


def test_writer_keeps_signed_zero_constants_apart():
    # The constants block is cached by value; 0.0 and -0.0 print differently.
    def constants(v8):
        report = CertificateReport(
            hypotheses=(), tw=0, circles=(), estimates=(),
            hyperbolic=Certificate(False),
            geodesic_circles=GeodesicCertificate(False, Fraction(0), Fraction(1)),
            vol_augmentation_lb=None, vol_filled_lb=None, euler_char_cut=None,
            constants=Constants(v8=v8),
        )
        entry = result_to_entry(FileResult(file="f", ok=True, report=report))
        return json.loads(entry)["report"]["constants"]["v8"]

    assert [str(constants(v)) for v in (0.0, -0.0, 0.0)] == ["0.0", "-0.0", "0.0"]
