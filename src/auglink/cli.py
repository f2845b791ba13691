"""Command-line front end: batch analysis of link-diagram files.

``auglink analyze`` runs the full pipeline on each input file — parse,
resolve the twist-region selection (reducing any mixed-sign chains),
augment, and evaluate every geometric bound and certificate — then prints
one report per file, in input order, as text or JSON.

Exit status is 0 when every file was analyzed (certificates may still be
not-certified; that is data, not an error) and 2 when any file failed to
parse or validate.  Failures are reported per file and processing
continues with the remaining inputs.  Files are split over forked
processes, one per usable CPU; reports still come in input order, as each
chunk finishes.  A failed export keeps the report and adds a warning.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import marshal
import os
import signal
import sys
from fractions import Fraction
from json.encoder import INFINITY as _INFINITY
from json.encoder import encode_basestring_ascii as _str
from pathlib import Path
from typing import NamedTuple

from .augment import AugmentedLink, augment, export_augmented_diagram
from .diagram import parse_document, serialize_diagram
from .errors import AuglinkError, ExportError, InvalidDiagramError
from .geometry import CertificateReport, build_report, trivial_report
from .twist import resolve_selection


class RunConfig(NamedTuple):
    """Everything one ``analyze`` invocation needs."""

    inputs: tuple[str, ...]
    json_output: bool = False
    attest_hyperbolic: bool = False
    export_dir: str | None = None
    strict: bool = False


class FileResult(NamedTuple):
    """Outcome of analyzing a single input file."""

    file: str
    ok: bool
    name: str | None = None
    report: CertificateReport | None = None
    warnings: tuple[str, ...] = ()
    export_path: str | None = None
    error: str | None = None


def analyze_file(
    path: str, config: RunConfig, export: tuple[str, str | None] | None = None
) -> FileResult:
    """Run the pipeline on one file; never raises for per-file problems.

    ``export`` is the file's export path under ``config.export_dir`` and the
    earlier input that has the same path, if any; by default it is worked
    out from ``path`` alone.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        document = parse_document(text, allow_unknown_keys=not config.strict)
        diagram = document.diagram
        if not diagram.is_connected:
            raise InvalidDiagramError(
                "diagram is split; analysis requires a connected diagram"
            )
        reduced, selection = resolve_selection(diagram, document.annotations)
        if (
            reduced.crossing_count < diagram.crossing_count
            and reduced.link_component_count < diagram.link_component_count
        ):
            raise InvalidDiagramError(
                "link is split: R-II reduction cancels every crossing of a component"
            )
        if selection.region_count == 0:
            return FileResult(
                file=path,
                ok=True,
                name=diagram.name,
                report=trivial_report(),
                warnings=document.warnings,
            )
        augmented = augment(reduced, selection)
        report = build_report(augmented, config.attest_hyperbolic)
        warnings = document.warnings
        export_path = None
        if config.export_dir is not None:
            target, owner = export or _export_targets((path,), config.export_dir)[0]
            try:
                export_path = _write_export(target, augmented, owner)
            except (ExportError, OSError) as exc:
                warnings += (f"export failed: {exc}",)
        return FileResult(
            file=path,
            ok=True,
            name=diagram.name,
            report=report,
            warnings=warnings,
            export_path=export_path,
        )
    except (AuglinkError, OSError, UnicodeDecodeError) as exc:
        return FileResult(file=path, ok=False, error=str(exc))


def _export_targets(inputs, export_dir: str) -> list[tuple[str, str | None]]:
    """Each input's path ``DIR/<stem>.augmented.json``, as ``str(Path(DIR) / name)``
    spells it, and the earlier input that has the same path, if any."""
    out_dir = str(Path(export_dir))
    prefix = "" if out_dir == "." else os.path.join(out_dir, "")
    first: dict[str, int] = {}  # stem -> the first input that has it
    targets = []
    for i, p in enumerate(inputs):
        stem = Path(p).stem
        j = first.setdefault(stem, i)
        targets.append((prefix + stem + ".augmented.json", None if j == i else inputs[j]))
    return targets


_EXPORT_FLAGS = os.O_WRONLY | os.O_CREAT  # and no O_TRUNC: see _write_export


def _write_export(out_path: str, augmented: AugmentedLink, owner: str | None) -> str:
    if owner is not None:  # an earlier input has this export path
        raise ExportError(f"{out_path} is the export of {owner}")
    data = (serialize_diagram(export_augmented_diagram(augmented)) + "\n").encode()
    try:
        # Rewritten in place: on ext4, truncating a file that is there already
        # costs several times the write.  A run killed between the write and
        # the ftruncate leaves the old file's tail after the new bytes.
        try:
            fd = os.open(out_path, _EXPORT_FLAGS, 0o666)
        except (FileNotFoundError, NotADirectoryError):  # DIR is missing, or not a directory
            Path(out_path).parent.mkdir(parents=True, exist_ok=True)  # raises saying why
            fd = os.open(out_path, _EXPORT_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:  # a write may be short
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(out_path)  # leave no partial export behind
        raise
    return out_path


# ============================================================================
# Rendering
# ============================================================================


# The entry is written at a fixed shape, as ``json.dumps(entry, indent=2,
# sort_keys=True)`` lays it out, with two more spaces on every line after
# the first; ``tests/test_cli.py::test_writer_matches_json_dumps`` holds the
# bytes equal.  Strings are escaped and floats printed as ``json`` does it.


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _strings(items, indent: str) -> str:
    """A JSON array of strings whose items sit at ``indent``."""
    if not items:
        return "[]"
    return f"[\n{indent}" + f",\n{indent}".join(map(_str, items)) + f"\n{indent[:-2]}]"


# The blocks every entry repeats, cached by value: the float constants by
# their exact bits (``float.hex``), so that 0.0 and -0.0 stay apart.
@functools.lru_cache(maxsize=8)
def _hypotheses(hypotheses: tuple[str, ...]) -> str:
    return _strings(hypotheses, " " * 8)


@functools.lru_cache(maxsize=8)
def _threshold(numerator: int, denominator: int) -> str:
    return _str(str(Fraction(numerator, denominator)))


@functools.lru_cache(maxsize=8)
def _constants(bits: tuple[str, ...]) -> str:
    hk, six, two_pi, v8 = (_float(float.fromhex(b)) for b in bits)
    return (f'{{\n        "hk": {hk},\n        "six": {six},\n'
            f'        "two_pi": {two_pi},\n        "v8": {v8}\n      }}')


def _circle(circle, estimate) -> str:
    return (f'{{\n          "c": {estimate.c},\n          "epsilon": {circle.epsilon},\n'
            f'          "id": {circle.id},\n          "m": {circle.strand_count},\n'
            f'          "n": {circle.filling_n},\n'
            f'          "normalized_length_lb": {_float(estimate.normalized_lb)},\n'
            f'          "slope_length_lb": {_float(estimate.length_lb)}\n        }}')


def _report(report: CertificateReport) -> str:
    geo, hyp, consts = report.geodesic_circles, report.hyperbolic, report.constants
    circles = "[]"
    if report.circles:
        circles = "[\n        " + ",\n        ".join(
            map(_circle, report.circles, report.estimates)) + "\n      ]"
    volume = "null"
    if report.vol_augmentation_lb is not None:
        filled = ""
        if report.vol_filled_lb is not None:
            filled = f',\n        "filled_lb": {_float(report.vol_filled_lb)}'
        volume = (f'{{\n        "augmentation_lb": {_float(report.vol_augmentation_lb)},\n'
                  f'        "euler_char_cut": {report.euler_char_cut}{filled}\n      }}')
    threshold = _threshold(geo.threshold.numerator, geo.threshold.denominator)
    constants = _constants(tuple(map(float.hex, (consts.hk, consts.six, consts.two_pi,
                                                 consts.v8))))
    return (
        '{\n      "certificates": {\n        "geodesic_hk": {\n'
        f'          "certified": {"true" if geo.certified else "false"},\n'
        f'          "reasons": {_strings(geo.reasons, " " * 12)},\n'
        f'          "sum_of_inverses": {_str(str(geo.sum_of_inverses))},\n'
        f'          "threshold": {threshold}\n        }},\n'
        '        "hyperbolic_6thm": {\n'
        f'          "certified": {"true" if hyp.certified else "false"},\n'
        f'          "reasons": {_strings(hyp.reasons, " " * 12)}\n        }}\n      }},\n'
        f'      "circles": {circles},\n'
        f'      "constants": {constants},\n'
        f'      "hypotheses": {_hypotheses(report.hypotheses)},\n'
        f'      "tw": {report.tw},\n'
        f'      "volume": {volume}\n    }}'
    )


def result_to_entry(result: FileResult) -> str:
    """The JSON text of one entry, at its indent in the report array."""
    if not result.ok:
        return (f'{{\n    "error": {_str(result.error or "unknown error")},\n'
                f'    "file": {_str(result.file)},\n    "ok": false\n  }}')
    assert result.report is not None
    fields = [f'"file": {_str(result.file)}',
              f'"name": {"null" if result.name is None else _str(result.name)}',
              '"ok": true',
              f'"report": {_report(result.report)}']
    if result.export_path is not None:
        fields.insert(0, f'"export": {_str(result.export_path)}')
    if result.warnings:
        fields.append(f'"warnings": {_strings(result.warnings, " " * 6)}')
    return "{\n    " + ",\n    ".join(fields) + "\n  }"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_text(result: FileResult) -> str:
    """Human-readable report: all numbers to 6 significant digits."""
    lines = [f"== {result.file} =="]
    if not result.ok:
        lines.append(f"error: {result.error}")
        return "\n".join(lines)
    report = result.report
    assert report is not None
    lines.append(f"name: {result.name if result.name is not None else '(unnamed)'}")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    lines.append(f"tw: {report.tw}")
    lines.append("hypotheses:")
    for hyp in report.hypotheses:
        lines.append(f"  - {hyp}")
    for circle, est in zip(report.circles, report.estimates):
        lines.append(
            f"circle {circle.id}: m={circle.strand_count} c={est.c}"
            f" epsilon={circle.epsilon} n={circle.filling_n}"
            f" slope_length_lb={_fmt(est.length_lb)}"
            f" normalized_length_lb={_fmt(est.normalized_lb)}"
        )
    lines.append(f"hyperbolic_6thm: {report.hyperbolic.status}")
    for reason in report.hyperbolic.reasons:
        lines.append(f"  - {reason}")
    geo = report.geodesic_circles
    lines.append(
        f"geodesic_hk: {geo.status}"
        f" (sum_of_inverses={_fmt(float(geo.sum_of_inverses))},"
        f" threshold={_fmt(float(geo.threshold))})"
    )
    for reason in geo.reasons:
        lines.append(f"  - {reason}")
    if report.vol_augmentation_lb is None:
        lines.append("volume: n/a (no twist regions)")
    else:
        lines.append(f"volume augmentation_lb: {_fmt(report.vol_augmentation_lb)}")
        if report.vol_filled_lb is not None:
            lines.append(f"volume filled_lb: {_fmt(report.vol_filled_lb)}")
        else:
            lines.append("volume filled_lb: n/a (needs every c >= 7)")
        lines.append(f"euler_char_cut: {report.euler_char_cut}")
    if result.export_path is not None:
        lines.append(f"export: {result.export_path}")
    return "\n".join(lines)


# ============================================================================
# Entry point
# ============================================================================


_CHUNK = 32  # input files per unit of work; a worker sends back a chunk at a time


def analyze(config: RunConfig, stdout=None) -> int:
    """Analyze every input and print reports in input order; return status.

    Chunk j of ``_CHUNK`` inputs goes to process j mod n, one per usable CPU:
    this is process 0, the others are forked and reply through pipes.  Each
    chunk is written as it ends; each export path belongs to its first input.
    The JSON array has the bytes ``json.dumps(entries, indent=2, sort_keys=True)``
    would give; ``tests/test_cli.py::test_writer_matches_json_dumps`` holds them equal.
    """
    out = stdout if stdout is not None else sys.stdout
    inputs = config.inputs
    exports = ([None] * len(inputs) if config.export_dir is None
               else _export_targets(inputs, config.export_dir))
    chunks = [range(i, min(i + _CHUNK, len(inputs))) for i in range(0, len(inputs), _CHUNK)]
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = min(len(os.sched_getaffinity(0)), len(chunks)) if forks else 1
    head, sep = ("[\n  ", ",\n  ") if config.json_output else ("", "\n\n")
    all_ok, workers = True, []  # (pid, read end of its pipe) of processes 1 .. n - 1
    try:
        for k in range(1, n):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(read_end, write_end, chunks[k::n], config, exports)
            workers.append((pid, open(read_end, "rb")))
            os.close(write_end)
        for j, chunk in enumerate(chunks):
            k = j % n
            texts = _receive(workers[k - 1][1]) if k else _analyze_chunk(chunk, config, exports)
            for i, (ok, text) in zip(chunk, texts):
                all_ok = all_ok and ok
                out.write((head if i == 0 else sep) + text)
    finally:
        for pid, pipe in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    out.write(("\n]\n" if inputs else "[]\n") if config.json_output else "\n")
    return 0 if all_ok else 2


def _analyze_chunk(chunk: range, config: RunConfig, exports: list) -> list[tuple[bool, str]]:
    render = result_to_entry if config.json_output else render_text
    results = (analyze_file(config.inputs[i], config, exports[i]) for i in chunk)
    return [(result.ok, render(result)) for result in results]


def _work(read_end: int, write_end: int, chunks: list, config: RunConfig, exports: list):
    """A forked worker: send each chunk's texts down the pipe, then leave by ``os._exit``."""
    try:
        os.close(read_end)  # so that the worker never waits on a pipe it reads itself
        pipe = open(write_end, "wb")
        for chunk in chunks:
            data = marshal.dumps(_analyze_chunk(chunk, config, exports))
            pipe.write(len(data).to_bytes(8, "little") + data)
            pipe.flush()
        os._exit(0)  # which flushes no buffer inherited from the parent
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback, to stderr
        sys.stderr.flush()
    finally:
        os._exit(1)  # after an exception, or an interrupt


def _receive(pipe) -> list[tuple[bool, str]]:
    data = pipe.read(int.from_bytes(pipe.read(8), "little"))
    if not data:  # the worker ended early, as it sends no empty chunk
        raise RuntimeError("an analysis worker ended before sending its reports")
    return marshal.loads(data)  # raises on a chunk cut short


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auglink",
        description="Analyze link diagrams: twist regions, augmentation, "
        "and geometric certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze_parser = sub.add_parser(
        "analyze", help="analyze one or more diagram files"
    )
    analyze_parser.add_argument("files", nargs="+", help="diagram files (JSON)")
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit a JSON report array"
    )
    analyze_parser.add_argument(
        "--attest-hyperbolic",
        action="store_true",
        help="attest that each augmented complement is hyperbolic "
        "(required hypothesis of every certificate)",
    )
    analyze_parser.add_argument(
        "--export-augmented",
        metavar="DIR",
        help="write each augmented diagram to DIR/<stem>.augmented.json",
    )
    analyze_parser.add_argument(
        "--strict",
        action="store_true",
        help="reject unknown keys in input files instead of warning",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        inputs=tuple(args.files),
        json_output=args.json,
        attest_hyperbolic=args.attest_hyperbolic,
        export_dir=args.export_augmented,
        strict=args.strict,
    )
    return analyze(config)


if __name__ == "__main__":
    sys.exit(main())
