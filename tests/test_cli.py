"""Command-line behavior: exit codes, report formats, determinism, export."""

from __future__ import annotations

import contextlib
import errno
import importlib
import importlib.util
import io
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auglink import cli
from auglink.augment import CrossingCircle
from auglink.cli import FileResult, RunConfig, analyze, build_parser, main, result_to_entry
from auglink.diagram import _ENTERS, Diagram, parse_document
from auglink.errors import AuglinkError, ExportError, InvalidDiagramError
from auglink.geometry import (
    CONSTANTS,
    GEODESIC_THRESHOLD,
    Certificate,
    CertificateReport,
    GeodesicCertificate,
    SlopeEstimate,
)
from auglink.report_schema import REPORT_SCHEMA
from auglink.twist import detect_bigon_chains, resolve_selection

from braid import braid_closure, half_twist_word
from corpus import FIGURE8, GOLDEN, GOLDEN_TWIST, TREFOIL, UNKNOT0
from oracle import oracle_euler, oracle_incoherent_arcs, oracle_link_components


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


def _read_as_text_mode_does(path: str) -> str | None:
    """The reference: the error ``Path.read_text`` and ``parse_document`` give, if any."""
    try:
        parse_document(pathlib.Path(path).read_text(encoding="utf-8"), allow_unknown_keys=True)
    except (AuglinkError, OSError, UnicodeDecodeError) as exc:
        return str(exc)
    return None


_TREFOIL_TEXT = json.dumps({"name": "trefoil", "pd": TREFOIL}, indent=1)


@pytest.mark.parametrize("data", [
    pytest.param(_TREFOIL_TEXT.replace("\n", "\r\n").encode(), id="valid-crlf"),
    pytest.param(_TREFOIL_TEXT.replace("\n", "\r").encode(), id="valid-cr"),
    pytest.param(b'{\r\n "pd": [[1, 2, 3, 4],\r\n\r\n  [3, 4 1, 2]]\r\n}', id="malformed-crlf"),
    pytest.param(b'{\r "pd": [[1, 2, 3, 4],\r\r  [3, 4 1, 2]]\r}', id="malformed-cr"),
    pytest.param(b'{\r\r\n\n\r "pd": [[1, 2, 3, 4], [3, 4 1, 2]]}', id="malformed-mixed"),
    pytest.param(b'{"pd": [[1, 1, 2, 2]], "name": "a\r\nb"}', id="crlf-in-a-string"),
    pytest.param(b'{"pd": [[1, 1, 2, 2]], "name": "a\rb"}', id="cr-in-a-string"),
    pytest.param(b'{"pd": [[1, 1, 2, 2]], "name": "\xff"}', id="invalid-utf8"),
    pytest.param(b'\n\n{"pd": [[1, 1, 2, 2]], "name": "\xe2\x82"}', id="utf8-cut-short"),
    pytest.param(b"\xef\xbb\xbf" + _TREFOIL_TEXT.encode(), id="utf8-bom"),
    pytest.param(_TREFOIL_TEXT.encode("utf-16"), id="utf16"),
    pytest.param(_TREFOIL_TEXT.encode("utf-16-le"), id="utf16-without-bom"),
    pytest.param(b"", id="empty"),
])
def test_reading_bytes_keeps_every_error_text(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    result = cli.analyze_file(str(path), RunConfig(inputs=()))
    assert result.error == _read_as_text_mode_does(str(path))
    if result.ok:  # as read from the same text with LF line endings
        lf = _write(tmp_path, "in.json", json.loads(data.decode().replace("\r", "\n")))
        reference = cli.analyze_file(lf, RunConfig(inputs=()))
        assert result_to_entry(result) == result_to_entry(reference)


def test_reading_bytes_keeps_the_errors_of_paths_that_cannot_be_read(tmp_path):
    for path in (tmp_path, tmp_path / "missing.json", tmp_path / "missing" / "a.json"):
        result = cli.analyze_file(str(path), RunConfig(inputs=()))
        assert not result.ok
        assert result.error == _read_as_text_mode_does(str(path))
    # A path is never taken for a file descriptor, which ``open`` would read and close.
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(TypeError):
            cli.analyze_file(read_end, RunConfig(inputs=()))
        os.fstat(read_end)  # still open
    finally:
        os.close(read_end)
        os.close(write_end)


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


@pytest.mark.parametrize(
    "word, strands, error",
    [
        # Cancelling s2 s2^-1 leaves two trefoils on their own strands: the
        # link keeps both components, but its diagram falls apart.
        ([1, 1, 1, 2, -2, 3, 3, 3], 4,
         "diagram is split (disconnected); augmentation undefined"),
        # Cancelling s1 s1^-1 takes every crossing of the first strand.
        ([1, -1, 2, 2, 2], 3,
         "link is split: R-II reduction cancels every crossing of a component"),
    ],
    ids=["diagram", "component"],
)
def test_split_after_reduction_messages(tmp_path, word, strands, error):
    pd, signs = braid_closure(word, strands)
    path = _write(tmp_path, "split.json", {"pd": pd, "signs": signs})
    status, entries = _run_json(path)
    assert status == 2
    assert entries == [{"error": error, "file": path, "ok": False}]


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


def _large_closure() -> dict:
    """A seeded 10,000-letter 6-strand closure, as an input document."""
    rng = random.Random(10000)
    word = [rng.randint(1, 5) for _ in range(10000)]
    word[:5] = [1, 2, 3, 4, 5]
    pd, signs = braid_closure(word, 6)
    return {"pd": pd, "signs": signs}


def test_one_large_export_stays_in_bounded_memory(tmp_path):
    # One 10,000-letter 6-strand closure, analyzed and exported under
    # tracemalloc.  The bound sits between the traced peak of a pipeline
    # that keeps lists with an int per dart and whole copies of the
    # export's text (27.9 MB on Python 3.11) and this one's (14.9 MB), with
    # room for other Python versions.
    path = _write(tmp_path, "large.json", _large_closure())
    tracemalloc.start()
    try:
        result = cli.analyze_file(path, RunConfig(inputs=(path,), export_dir=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok and result.warnings == () and result.export_path is not None
    assert peak < 20_000_000, f"traced peak {peak / 1e6:.1f} MB"


def test_a_parsed_large_diagram_holds_its_signs_and_mates_only():
    # What parse_document leaves held for the closure above, under
    # tracemalloc.  The bound sits between a diagram that also keeps the
    # input's arc labels and a tuple of crossing ids (3.49 MB on Python
    # 3.11) and one that keeps its signs, mates and a range (1.68 MB), with
    # room for other Python versions.
    text = json.dumps(_large_closure())
    tracemalloc.start()
    try:
        document = parse_document(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert document.diagram.crossing_count == 10000
    assert held < 2_600_000, f"parsed diagram holds {held / 1e6:.2f} MB"


# The closure of s3 s2 s2 s1 s1 s3 s2 s3 on 4 strands.  Crossings 0-5 pass
# as a full twist of 3 strands but are none: the box drawn for them has 4
# link components, not the input's 2 plus one per circle.
_WINDOW = {
    "pd": [[3, 5, 6, 4], [2, 7, 8, 5], [7, 9, 10, 8], [1, 11, 12, 9], [11, 1, 14, 12],
           [10, 15, 16, 6], [14, 2, 18, 15], [18, 3, 4, 16]],
    "signs": [1] * 8,
    "regions": [{"crossings": [0, 1, 2, 3, 4, 5], "strands": 3, "half_twists": 2}],
}


def test_failed_export_keeps_the_report(tmp_path):
    # The window analyzes, but its drawing is refused: a warning on a kept report.
    out_dir = tmp_path / "exports"
    path = _write(tmp_path, "window.json", _WINDOW)
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    jsonschema.validate(entries, REPORT_SCHEMA)
    (entry,) = entries
    assert entry["ok"] and entry["report"]["tw"] == 3
    assert "export" not in entry
    assert [w.startswith("export failed: ") for w in entry["warnings"]] == [True]
    status, text = _run(path, export_dir=str(out_dir))
    assert status == 0
    assert "warning: export failed: " in text


def test_export_with_the_wrong_component_count_is_refused(tmp_path):
    out_dir = tmp_path / "exports"
    path = _write(tmp_path, "window.json", _WINDOW)
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


@pytest.mark.parametrize("export", [False, True])
def test_box_that_pairs_no_strands_is_refused_with_or_without_export(tmp_path, export):
    # The closure of s1 s1 s2 s1 s2 with s1 s1 s2 annotated as a half-twist
    # of 3 strands: the box's sides do not pair its strands as one does.
    pd, signs = braid_closure([1, 1, 2, 1, 2], 3)
    regions = [{"crossings": [0, 1, 2], "strands": 3, "half_twists": 1}]
    path = _write(tmp_path, "box.json", {"pd": pd, "signs": signs, "regions": regions})
    out_dir = tmp_path / "exports"
    status, entries = _run_json(path, export_dir=str(out_dir) if export else None)
    assert status == 2
    assert entries == [{"error": "region 1: strands do not pair across the boundary "
                                 "like a twist box", "file": path, "ok": False}]
    assert not out_dir.exists()


_augment_module = importlib.import_module("auglink.augment")


def _strand_out_port(signs, starts, stub):
    # Of the circle crossing's strand ports (E and W), the one its strand
    # leaves by, read from the stub's sign and slot-0 position.
    enters = _ENTERS[signs[stub]]
    return next(p for p in (4 * stub, 4 * stub + 2) if not enters[(p - starts[stub]) & 3])


def _swap_far_ends(mates, a, b):
    far_a, far_b = mates[a], mates[b]
    mates[a], mates[far_b] = far_b, a
    mates[b], mates[far_a] = far_a, b
    return []


def _wire_and_unwire_far_ends(mates, a, b):
    mates[mates[a]] = mates[mates[b]] = -1
    mates[a], mates[b] = b, a
    return []


def _overwrite_one_way(mates, a, b):
    # a's wire now ends at b, but b and a's old mate still name their old
    # mates: the two one-way ports.
    far_a, mates[a] = mates[a], b
    return sorted((a, far_a))


def _wire_to_themselves(mates, a, b):
    # a and its old mate are each wired to itself: both ways, but each is
    # the one end of its arc.
    far_a = mates[a]
    mates[a], mates[far_a] = a, far_a
    return sorted((a, far_a))


@pytest.mark.parametrize(
    "pd, other_port, rewire, error",
    [
        # The circle's wire crossed with a strand's: no longer planar.
        (TREFOIL, lambda signs, starts, under: _strand_out_port(signs, starts, under[0]),
         _swap_far_ends, "drawing is not planar: Euler formula violated"),
        # The circle wired into crossing 0, which the figure-8's even chain
        # splices out, and both far ends left unwired: the splice runs the
        # circle through the chain to an unwired port.
        (FIGURE8, lambda signs, starts, under: 2, _wire_and_unwire_far_ends,
         "unwired ports remain: "),
        # The circle's wire overwritten at one end only.
        (TREFOIL, lambda signs, starts, under: _strand_out_port(signs, starts, under[0]),
         _overwrite_one_way, "unwired ports remain: "),
        # The circle's wire cut, each end wired to itself.
        (TREFOIL, lambda signs, starts, under: 0, _wire_to_themselves, "unwired ports remain: "),
    ],
    ids=["not-planar", "wired-to-a-spliced-crossing", "one-way", "wired-to-itself"],
)
def test_miswired_export_is_an_export_failure(tmp_path, monkeypatch, pd, other_port, rewire,
                                              error):
    ring = _augment_module._ring
    named = []  # the ports the error must name, when the case knows them

    def crossed(mates, signs, starts, ports):
        # Draw the ring, then rewire one of the circle's out-ports and another
        # port.  The under stubs hold the returned lanes; each over stub is
        # made right after its under stub.
        lanes = ring(mates, signs, starts, ports)
        under = [lane >> 2 for lane in lanes]
        a, b = 4 * (under[0] + 1) + _augment_module._S, other_port(signs, starts, under)
        named[:] = rewire(mates, a, b)
        return lanes

    monkeypatch.setattr(_augment_module, "_ring", crossed)
    path = _write(tmp_path, "knot.json", {"pd": pd})
    reduced, selection = resolve_selection(Diagram.from_pd(pd))
    with pytest.raises(ExportError, match=f"^{error}") as excinfo:
        _augment_module.export_augmented_diagram(_augment_module.augment(reduced, selection))
    if named:
        assert str(excinfo.value) == f"{error}{named}"
    result = cli.analyze_file(path, RunConfig(inputs=(path,), export_dir=str(tmp_path / "out")))
    assert result.ok and result.report is not None
    if error.startswith("drawing is not planar"):
        # The CLI writes the drawing without the constructor's Euler walk,
        # so the miswired drawing is written, and the oracle refuses it.
        assert result.warnings == ()
        exported = json.loads(pathlib.Path(result.export_path).read_text(encoding="utf-8"))
        v, e, f = oracle_euler(exported["pd"])
        assert v - e + f != 2
        return
    assert result.export_path is None
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


def test_export_that_cannot_be_opened_is_left_as_it_was(tmp_path, monkeypatch):
    # A read-only earlier export: opening it fails, and it must not be removed.
    # Mode bits do not stop root, so the refused open is simulated.
    out_dir = tmp_path / "exports"
    out_dir.mkdir()
    target = out_dir / "trefoil.augmented.json"
    target.write_bytes(b"an earlier export\n")
    path = _write(tmp_path, "trefoil.json", {"pd": TREFOIL})
    real_open = os.open

    def refuse(file, flags, *args):
        if os.fspath(file) == str(target):
            raise PermissionError(errno.EACCES, "Permission denied", str(target))
        return real_open(file, flags, *args)

    monkeypatch.setattr(os, "open", refuse)
    status, entries = _run_json(path, export_dir=str(out_dir))
    assert status == 0
    (entry,) = entries
    assert entry["ok"] and entry["report"]["tw"] == 1 and "export" not in entry
    assert entry["warnings"] == [f"export failed: [Errno 13] Permission denied: '{target}'"]
    assert target.read_bytes() == b"an earlier export\n"


@pytest.mark.parametrize("stale",["x" * 100_000, "{}"], ids=["longer", "shorter"])
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
    # Nor do they load a process pool: the workers are plain forks.
    code = ("import sys, auglink.cli; print(sorted("
            "{'dataclasses', 'inspect', 'multiprocessing', 'concurrent'} & set(sys.modules)))")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_cli_binds_every_name_the_benchmark_traces():
    # perfbench/child.py --trace replaces these names of auglink.cli with
    # timing wrappers, by getattr; a name gone from cli breaks traced runs.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert "export_augmented_diagram" in child.WRAPPED
    assert [name for name in child.WRAPPED if not hasattr(cli, name)] == []


# ----------------------------------------------------------------------------
# Files split over forked worker processes
# ----------------------------------------------------------------------------


def _closures(directory: pathlib.Path) -> list[str]:
    """160 seeded closures of 3-5 strands, ``c000.json`` on, that analyze reports ok.

    File i has mixed signs when i = 1 mod 3, so that R-II reduction runs.
    When i = 9 mod 10 its word starts with c = 1, 2 or 3 annotated
    half-twists of 3 strands of one sign: an m = 3 box, drawn with its
    staircase when c is odd.  Otherwise, when i = 2 mod 3, its longest
    detected chain is annotated as an m = 2 region.  When i = 3 mod 4 it
    has no ``signs``, so that sign inference decides them.  A file that
    analyze refuses (a split reduction, an annotation that is no region, or
    signs that inference cannot decide) is drawn again; 163 draws make the
    160 files, and a fault that makes analyze refuse more fails here.
    """
    rng = random.Random(7)
    paths: list[str] = []
    for _ in range(200):
        i = len(paths)
        strands = rng.choice((3, 4, 5))
        signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
        word = list(range(1, strands))
        word += [rng.randrange(1, strands) for _ in range(rng.randrange(4, 30))]
        if i % 3 == 1:
            word = [g * rng.choice((1, -1)) for g in word]
        else:
            word = [g * signs[g - 1] for g in word]
        prefix = []
        if i % 10 == 9:
            c, sign = rng.choice((1, 2, 3)), rng.choice((1, -1))
            prefix = [sign * j for j in half_twist_word(3) * c]
        pd, pd_signs = braid_closure(prefix + word, strands)
        doc = {"name": f"c{i}", "pd": pd, "signs": pd_signs}
        if prefix:
            doc["regions"] = [{"crossings": list(range(len(prefix))), "strands": 3,
                               "half_twists": c}]
        elif i % 3 == 2:
            chain = max(detect_bigon_chains(Diagram.from_pd(pd, pd_signs)),
                        key=lambda r: r.half_twists)
            doc["regions"] = [{"crossings": sorted(chain.crossing_ids), "strands": 2,
                               "half_twists": chain.half_twists}]
        if i % 4 == 3:
            del doc["signs"]
        path = _write(directory, f"c{i:03d}.json", doc)
        if cli.analyze_file(path, RunConfig(inputs=())).ok:
            paths.append(path)
            if len(paths) == 160:
                return paths
    raise AssertionError(f"analyze refused {200 - len(paths)} of 200 census draws")


def _census(root: pathlib.Path) -> list[str]:
    """170 inputs in ``root/in``, so six chunks, spelled from a sibling of ``in``.

    The 160 files of ``_closures``, and among them, over five chunks, ten
    special files: the four golden diagrams, an annotated trefoil, the
    0-crossing unknot, a missing, a malformed and a split file, and
    ``sub/c005.json``, whose export path is that of ``c005.json`` in chunk 0.
    """
    directory = root / "in"
    (directory / "sub").mkdir(parents=True)
    paths = _closures(directory)
    special = [
        _write(directory, "unknot.json", UNKNOT0),
        str(directory / "missing.json"),
        _write(directory, "malformed.json", {"pd": [[1, 2, 3]]}),
        _write(directory, "split.json", [[1, 1, 2, 2], [3, 3, 4, 4]]),
        _write(directory, "annotated.json", {
            "pd": TREFOIL, "regions": [{"crossings": [0, 1, 2], "strands": 2, "half_twists": 3}]}),
        _write(directory / "sub", "c005.json", {"name": "clash", "pd": FIGURE8}),
    ] + [_write(directory, f"{name}.json", {"name": name, "pd": pd}) for name, pd in GOLDEN.items()]
    for k, path in enumerate(special):
        paths.insert(17 * k + 5, path)
    return [os.path.relpath(path, root / "run") for path in paths]


def _strip_signs(doc: dict, rng: random.Random) -> None:
    doc.pop("signs", None)


def _relabel(doc: dict, rng: random.Random) -> None:
    """Give ``doc`` its signs explicitly, then permute its arc labels."""
    doc["signs"] = list(Diagram.from_pd(doc["pd"], doc.get("signs")).signs)
    labels = sorted({a for quad in doc["pd"] for a in quad})
    relabel = dict(zip(labels, rng.sample(labels, len(labels))))
    doc["pd"] = [[relabel[a] for a in quad] for quad in doc["pd"]]


def _rewrite_census(census: pathlib.Path, root: pathlib.Path, rewrite) -> None:
    """Copy ``census/in`` to ``root/in``, passing each input that parses through ``rewrite``."""
    rng = random.Random(11)
    for path in sorted((census / "in").rglob("*.json")):
        doc = json.loads(path.read_bytes())
        if isinstance(doc, dict):
            with contextlib.suppress(InvalidDiagramError):  # the malformed file
                rewrite(doc, rng)
        target = root / "in" / path.relative_to(census / "in")
        target.parent.mkdir(parents=True, exist_ok=True)
        _write(target.parent, target.name, doc)


def _census_run(monkeypatch, run_dir: pathlib.Path, inputs, json_output, export):
    """Status, stdout and export bytes of a run from ``run_dir``, exporting to ``exports``."""
    run_dir.mkdir(parents=True)
    monkeypatch.chdir(run_dir)
    status, text = _run(*inputs, json_output=json_output, export_dir="exports" if export else None)
    files = {p.name: p.read_bytes() for p in (run_dir / "exports").iterdir()} if export else {}
    return status, text, files


def _check_census_exports(run_dir: pathlib.Path, text: str, files: dict) -> None:
    """Hold every export of the run from ``run_dir`` to ``json``'s bytes and to the
    oracles: oriented by its signs, planar and with one new link component per
    twist region."""
    entries = json.loads(text)
    exported = [entry for entry in entries if "export" in entry]
    assert len(exported) == len(files)
    for entry in exported:
        export_text = files[pathlib.PurePath(entry["export"]).name].decode()
        doc = json.loads(export_text)
        assert export_text == json.dumps(doc, sort_keys=True) + "\n", entry["export"]
        assert oracle_incoherent_arcs(doc["pd"], doc["signs"]) == [], entry["export"]
        v, e, f = oracle_euler(doc["pd"])
        assert v - e + f == 2, entry["export"]
        source = json.loads((run_dir / entry["file"]).read_bytes())
        expected = oracle_link_components(source["pd"]) + entry["report"]["tw"]
        assert oracle_link_components(doc["pd"]) == expected, entry["export"]
    closures = [entry for entry in entries if entry["file"].startswith("../in/c")]
    assert all(entry["ok"] for entry in closures)
    boxes = sum(any(c["m"] >= 3 for c in entry["report"]["circles"])
                for entry in closures if "export" in entry)
    assert (len(closures), sum("export" in entry for entry in closures), boxes) == (160, 159, 16)


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
    census = tmp_path / "signed"
    inputs = _census(census)
    assert len(inputs) > 5 * cli._CHUNK
    exits = tmp_path / "exits.log"
    _log_worker_exits(monkeypatch, exits)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    runs = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):  # one CPU forks no worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        runs.append(_census_run(monkeypatch, census / f"run{len(cpus)}", inputs,
                                json_output, export))
    assert len(forks) == 2 + 3
    assert runs[0] == runs[1] == runs[2]
    status, text, files = runs[0]
    assert status == 2
    assert "clash" in text
    assert ("c005.augmented.json is the export of" in text) == export
    assert bool(files) == export
    if export:
        if json_output:
            _check_census_exports(census / "run1", text, files)
        # Sign inference finds the signs the census carries, and no output
        # depends on the values of the arc labels.
        for rewrite in (_strip_signs, _relabel):
            root = tmp_path / rewrite.__name__
            _rewrite_census(census, root, rewrite)
            assert _census_run(monkeypatch, root / "run", inputs, json_output, export) == runs[0]
    # No worker fails: each waits for another chunk until it is killed.
    assert not exits.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


@pytest.mark.parametrize("index, raised, expected, message", [
    (3, RuntimeError, RuntimeError, "boom"),  # in the parent's own chunk
    (40, RuntimeError, RuntimeError, "worker ended"),  # in a worker's chunk
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
    if index >= cli._CHUNK:  # that worker exits; the other is killed
        assert exits.read_text(encoding="utf-8") == "1\n"
        if raised is RuntimeError:
            assert "RuntimeError: boom" in capfd.readouterr().err  # the worker's traceback
    else:  # every worker is killed
        assert not exits.exists()


@pytest.mark.parametrize("raised", [RuntimeError, KeyboardInterrupt])
def test_error_in_the_merge_loop_reaps_workers(tmp_path, monkeypatch, raised):
    inputs = [_write(tmp_path, f"t{i:02d}.json", {"pd": TREFOIL}) for i in range(80)]
    exits = tmp_path / "exits.log"
    _log_worker_exits(monkeypatch, exits)

    class FlakyOut(io.StringIO):
        def write(self, text):
            if inputs[40] in text:  # a worker's entry, as the parent writes it
                raise raised("boom")
            return super().write(text)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = FlakyOut()
    with pytest.raises(raised, match="boom"):
        analyze(RunConfig(inputs=tuple(inputs), json_output=True), stdout=out)
    assert not out.getvalue().endswith("]\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not exits.exists()  # every worker is killed


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError here when the block runs longer than ``seconds``;
    forked workers inherit no timer."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cut", [None, 5, 100, "half", "all"])
def test_worker_killed_mid_reply_is_the_worker_error(tmp_path, monkeypatch, cut):
    # None: the worker kills itself inside its chunk, before it replies.
    # Otherwise it kills itself once that many bytes of its reply are sent:
    # inside the 8-byte length, inside the body, halfway through, or after
    # the whole reply, before the parent hands it the next chunk.
    inputs = [_write(tmp_path, f"t{i:02d}.json", {"pd": TREFOIL}) for i in range(80)]
    real_analyze, real_write_all, real_receive = cli.analyze_file, cli._write_all, cli._receive

    def killed(path, config, export_owner=None):
        if cut is None and path == inputs[40]:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_analyze(path, config, export_owner)

    pending = []  # a reply's length, held until its body comes, so that cut counts both

    def cut_short(fd, data):
        if not pending:
            pending.append(data)
            return
        data = pending.pop() + data
        if cut is not None:
            real_write_all(fd, data[:{"half": len(data) // 2, "all": None}.get(cut, cut)])
            os.kill(os.getpid(), signal.SIGKILL)
        real_write_all(fd, data)

    def receive_slowly(reply_read):  # so that the worker has ended by the next hand-out
        reply = real_receive(reply_read)
        time.sleep(0.2)
        return reply

    monkeypatch.setattr(cli, "analyze_file", killed)
    monkeypatch.setattr(cli, "_write_all", cut_short)
    monkeypatch.setattr(cli, "_receive", receive_slowly)
    monkeypatch.setattr(cli, "_CHUNK", 8)  # so that chunks are left to hand out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = io.StringIO()
    with _deadline(60), pytest.raises(RuntimeError, match="worker ended before sending"):
        analyze(RunConfig(inputs=tuple(inputs), json_output=True), stdout=out)
    assert not out.getvalue().endswith("]\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_more_workers_than_cpus_give_the_bytes_of_one_cpu(tmp_path, monkeypatch):
    # Eight workers on this host's CPUs, over 22 chunks of 8 census files.
    inputs = _census(tmp_path)
    monkeypatch.setattr(cli, "_CHUNK", 8)
    runs = []
    for cpus in ({0}, set(range(8))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with _deadline(120):
            runs.append(_census_run(monkeypatch, tmp_path / f"run{len(cpus)}", inputs,
                                    True, True))
    assert len(inputs) // cli._CHUNK >= 12
    assert runs[0] == runs[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_a_slow_chunk_leaves_the_other_chunks_to_the_free_worker(tmp_path, monkeypatch):
    inputs = [_write(tmp_path, f"t{i:02d}.json", {"pd": TREFOIL}) for i in range(50)]
    monkeypatch.setattr(cli, "_CHUNK", 2)  # 25 chunks: the parent's, and 24 for the workers
    log = tmp_path / "chunks.log"
    log.touch()
    real_chunk, real_receive = cli._analyze_chunk, cli._receive
    received = []  # chunk indices, in the order the parent reads their replies
    slowed = []  # non-empty only in the worker that takes chunk 1

    def logged(chunk, config, exports):
        if chunk.start == cli._CHUNK:  # chunk 1, the first a worker takes:
            slowed.append(chunk)  # from here on that worker is slow
            # It waits till the other worker has taken chunk 2 * _WINDOW,
            # however loaded the host.
            while f" {2 * cli._WINDOW * cli._CHUNK}\n" not in log.read_text(encoding="utf-8"):
                time.sleep(0.01)
        if slowed:
            time.sleep(0.3)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {chunk.start}\n")
        return real_chunk(chunk, config, exports)

    def receive(reply_read):
        reply = real_receive(reply_read)
        received.append(reply[0])
        return reply

    monkeypatch.setattr(cli, "_analyze_chunk", logged)
    monkeypatch.setattr(cli, "_receive", receive)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _deadline(60):
        status, text = _run(*inputs, json_output=True)
    assert status == 0 and [e["file"] for e in json.loads(text)] == inputs
    chunks = dict(line.split()[::-1] for line in log.read_text(encoding="utf-8").splitlines())
    assert len(chunks) == 25 and chunks.pop("0") == str(os.getpid())
    replies = Counter(chunks.values())
    slow = chunks[str(cli._CHUNK)]
    (fast,) = set(replies) - {slow}
    assert replies[fast] > replies[slow], replies  # a fixed assignment gives each twelve
    # While chunk 1 is stuck, every other chunk the window lets out goes to the free worker.
    stuck = [k for k in range(2, 2 * cli._WINDOW + 1) if chunks[str(k * cli._CHUNK)] != fast]
    assert not stuck, stuck
    # The fast worker runs ahead only so far: at most n * _WINDOW replies,
    # here 2 * 4 = 8 of 24, wait in the parent for their turn.
    held, most, j = set(), 0, 1
    for k in received:
        held.add(k)
        while j in held:
            held.remove(j)
            j += 1
        most = max(most, len(held))
    assert sorted(received) == list(range(1, 25))
    assert most <= 2 * cli._WINDOW, most


# Runs ``analyze`` on two CPUs over the input paths in argv[3:], with chunks of
# 4, printing each forked worker's pid; the parent kills itself inside chunk 0.
# With argv[1] "epipe" a worker waits inside its chunk until the parent is gone,
# so that its reply meets a pipe nobody reads.  With "eof" the parent waits
# until the workers have sent every reply (each appends a line to the file
# argv[2]), so that they sit idle on the task pipe when it ends.
_KILLED_PARENT = """
import os, signal, sys, time
from pathlib import Path
from auglink import cli

case, log, *inputs = sys.argv[1:]
parent = os.getpid()
real_fork, real_chunk, real_write_all = os.fork, cli._analyze_chunk, cli._write_all

def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid

def analyze_chunk(chunk, config, exports):
    if os.getpid() == parent:
        while case == "eof" and Path(log).read_text().count("sent") < len(inputs) // 4 - 1:
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    while case == "epipe" and os.getppid() == parent:
        time.sleep(0.01)
    return real_chunk(chunk, config, exports)

def write_all(fd, data):
    real_write_all(fd, data)
    with open(log, "a") as handle:
        handle.write("sent\\n")

os.sched_getaffinity = lambda pid: {0, 1}
os.fork, cli._analyze_chunk, cli._write_all, cli._CHUNK = fork, analyze_chunk, write_all, 4
cli.analyze(cli.RunConfig(inputs=tuple(inputs), json_output=True))
"""


@pytest.mark.parametrize("case", ["epipe", "eof"])
def test_workers_of_a_killed_parent_leave_quietly(tmp_path, case):
    inputs = [_write(tmp_path, f"t{i:02d}.json", {"pd": TREFOIL}) for i in range(12)]
    log = tmp_path / "sent.log"
    log.touch()
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    out = b""
    with subprocess.Popen([sys.executable, "-c", _KILLED_PARENT, case, str(log), *inputs],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as run:
        try:
            # Stderr ends only once every worker has closed its copy.
            out, err = run.communicate(timeout=30)
        except subprocess.TimeoutExpired as exc:
            out = exc.stdout or b""
            raise
        finally:
            run.kill()
            for pid in out.split():  # so that a failing run leaves no worker behind
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid), signal.SIGKILL)
    assert len(out.split()) == 2
    assert (run.returncode, err) == (-signal.SIGKILL, b"")


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


def test_closed_stdout_stops_quietly(tmp_path):
    # Reports well past the pipe's buffer, so that the run is still writing
    # when the reader closes the pipe after the first line, as ``| head -1``.
    inputs = [_write(tmp_path, f"t{i:03d}.json", {"pd": TREFOIL}) for i in range(300)]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "auglink.cli", "analyze", *inputs, "--json"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as run:
        try:
            assert run.stdout.readline() == b"[\n"
            run.stdout.close()
            status = run.wait(timeout=60)  # a traceback is far smaller than the pipe
            stderr = run.stderr.read()
        finally:
            run.kill()  # only if it hangs
    assert stderr == b""
    assert status == 1


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
                "threshold": str(GEODESIC_THRESHOLD),
                "reasons": list(geo.reasons),
            },
        },
        "volume": volume,
        "constants": {"v8": CONSTANTS.v8, "two_pi": CONSTANTS.two_pi, "hk": CONSTANTS.hk,
                      "six": CONSTANTS.six},
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
            draw(st.booleans()), draw(st.fractions()), draw(_reasons)
        ),
        vol_augmentation_lb=augmentation,
        vol_filled_lb=None if augmentation is None else draw(st.none() | _floats),
        euler_char_cut=None if augmentation is None else draw(_counts),
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


def _one_entry(circles) -> tuple[str, str]:
    """One entry as the writer prints it, and as ``json.dumps`` does."""
    report = CertificateReport(
        hypotheses=(), tw=len(circles), circles=tuple(c for c, _ in circles),
        estimates=tuple(e for _, e in circles), hyperbolic=Certificate(False),
        geodesic_circles=GeodesicCertificate(False, 0),
        vol_augmentation_lb=None, vol_filled_lb=None, euler_char_cut=None,
    )
    result = FileResult(file="f", ok=True, report=report)
    expected = json.dumps([reference_entry(result)], indent=2, sort_keys=True)
    return "[\n  " + result_to_entry(result) + "\n]", expected


_NAN = float("nan")
_CIRCLE = CrossingCircle(1, 1, 2, 3)
_ESTIMATE = SlopeEstimate(3, 0.5, 1.0)


@pytest.mark.parametrize("circles", [
    [(_CIRCLE, SlopeEstimate(3, 0.5, 0.0)), (_CIRCLE, SlopeEstimate(3, 0.5, -0.0))],
    [(_CIRCLE, SlopeEstimate(3, 0.0, 1.0)), (_CIRCLE, SlopeEstimate(3, -0.0, 1.0))],
    [(_CIRCLE, SlopeEstimate(0.0, 0.5, 1.0)), (_CIRCLE, SlopeEstimate(-0.0, 0.5, 1.0))],
    [(_CIRCLE, SlopeEstimate(5, 0.5, 1.0)), (_CIRCLE, SlopeEstimate(5.0, 0.5, 1.0))],
    [(_CIRCLE, SlopeEstimate(3, _NAN, 1.0)), (_CIRCLE, SlopeEstimate(3, 0.5, _NAN)),
     (_CIRCLE, _ESTIMATE)],
    [(CrossingCircle(*c), _ESTIMATE) for c in [(0.0, 1, 2, 3), (-0.0, 1, 2, 3), (0, 1, 2, 3)]],
    [(CrossingCircle(*c), _ESTIMATE) for c in [(1, 1, 2, -0.0), (1, 1, 2, 0.0), (1, 1, 2, 0)]],
    [(CrossingCircle(*c), _ESTIMATE) for c in [(1, 1, 2, 3), (1, 1, 2.0, 3), (1, 1.0, 2, 3)]],
])
def test_circle_memo_never_changes_bytes(circles):
    # Keys that compare equal must print equal text: 0.0 == -0.0 and 5 == 5.0.
    for order in (circles, circles[::-1]):
        cli._circle_text.cache_clear()
        for circle in order * 2:
            written, expected = _one_entry([circle])
            assert written == expected


def test_circle_memo_skips_zero_and_nan_floats():
    cli._circle_text.cache_clear()
    for estimate in (SlopeEstimate(0, 0.5, 0.0), SlopeEstimate(0, 0.5, -0.0),
                     SlopeEstimate(1, _NAN, 1.0), SlopeEstimate(1, 1.0, _NAN)):
        written, expected = _one_entry([(_CIRCLE, estimate)] * 2)
        assert written == expected
    assert cli._circle_text.cache_info().currsize == 0
    _one_entry([(_CIRCLE, _ESTIMATE)] * 2)
    assert cli._circle_text.cache_info()[:2] == (1, 1)  # hits, misses
    assert 0 < cli._circle_text.cache_info().maxsize <= 256
