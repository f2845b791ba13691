"""Command-line front end: batch analysis of link-diagram files.

``auglink analyze`` runs the full pipeline on each input file — parse,
resolve the twist-region selection (reducing any mixed-sign chains),
augment, and evaluate every geometric bound and certificate — then prints
one report per file, in input order, as text or JSON.

Exit status is 0 when every file was analyzed (certificates may still be
not-certified; that is data, not an error) and 2 when any file failed to
parse or validate.  Failures are reported per file and processing
continues with the remaining inputs.  A failed export keeps the report and
adds a warning.  Inputs go in chunks of 32.  The parent analyzes the first
and forked workers, one per usable CPU, the rest: each worker takes the next
chunk as soon as it has sent back its last, and the parent writes the reports
in input order.  A run of one chunk never forks.  The bytes are those of a
one-CPU run.

Each input is read as bytes and decoded as UTF-8, with ``\\r\\n`` and a lone
``\\r`` read as ``\\n``, as text mode reads them.  Most circles in a batch
repeat an earlier one, so a circle's JSON text is memoized by its seven
fields, in a memo of 256 entries.  Only int counts and positive floats take
it, as each of those prints one way: ``5 == 5.0`` and ``0.0 == -0.0`` print
differently, and a NaN equals no key.
"""

import argparse
import contextlib
import functools
import marshal
import os
import signal
import sys
from json.encoder import INFINITY as _INFINITY
from json.encoder import encode_basestring_ascii as _str
from pathlib import Path
from typing import NamedTuple

# export_augmented_diagram is not called here: it stays bound because the
# benchmark's tracer (perfbench/child.py) wraps it by name.
from .augment import AugmentedLink, _drawing, augment, export_augmented_diagram  # noqa: F401
from .diagram import _pd_text, parse_document
from .errors import AuglinkError, ExportError, InvalidDiagramError
from .geometry import (CONSTANTS, GEODESIC_THRESHOLD, CertificateReport, build_report,
                       trivial_report)
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
        with open(os.fspath(path), "rb", buffering=0) as file:  # never an int fd
            text = file.read().decode("utf-8")
        if "\r" in text:  # newlines as text mode reads them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
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
    name, signs, _, labels = _drawing(augmented)  # no Diagram, no whole-drawing walk
    data = (_pd_text(name, signs, labels) + "\n").encode()
    try:
        fd = os.open(out_path, _EXPORT_FLAGS, 0o666)
    except (FileNotFoundError, NotADirectoryError):  # DIR is missing, or not a directory
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)  # raises saying why
        fd = os.open(out_path, _EXPORT_FLAGS, 0o666)
    # Rewritten in place: on ext4, truncating a file that is there already
    # costs several times the write.  A run killed between the write and the
    # ftruncate leaves the old file's tail after the new bytes.  A failure
    # once the file is open removes it, so that no partial export is left.
    try:
        try:
            _write_all(fd, data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(out_path)
        raise
    return out_path


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:  # a write may be short
        view = view[os.write(fd, view):]


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


# The fixed blocks every entry repeats, rendered once.
_THRESHOLD = _str(str(GEODESIC_THRESHOLD))
_CONSTANTS = (f'{{\n        "hk": {_float(CONSTANTS.hk)},\n'
              f'        "six": {_float(CONSTANTS.six)},\n'
              f'        "two_pi": {_float(CONSTANTS.two_pi)},\n'
              f'        "v8": {_float(CONSTANTS.v8)}\n      }}')


def _circle(circle, estimate) -> str:
    # Keys that compare equal must print the same text (see the module docstring).
    circle_id, epsilon, m, n = circle
    c, length_lb, normalized_lb = estimate
    text = (_circle_text
            if int is type(c) is type(circle_id) is type(epsilon) is type(m) is type(n)
            and float is type(length_lb) is type(normalized_lb)
            and 0.0 < length_lb and 0.0 < normalized_lb else _circle_text.__wrapped__)
    return text(circle_id, epsilon, m, n, c, length_lb, normalized_lb)


@functools.lru_cache(maxsize=256)
def _circle_text(circle_id, epsilon, m, n, c, length_lb, normalized_lb) -> str:
    return (f'{{\n          "c": {c},\n          "epsilon": {epsilon},\n'
            f'          "id": {circle_id},\n          "m": {m},\n          "n": {n},\n'
            f'          "normalized_length_lb": {_float(normalized_lb)},\n'
            f'          "slope_length_lb": {_float(length_lb)}\n        }}')


def _report(report: CertificateReport) -> str:
    geo, hyp = report.geodesic_circles, report.hyperbolic
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
    return (
        '{\n      "certificates": {\n        "geodesic_hk": {\n'
        f'          "certified": {"true" if geo.certified else "false"},\n'
        f'          "reasons": {_strings(geo.reasons, " " * 12)},\n'
        f'          "sum_of_inverses": {_str(str(geo.sum_of_inverses))},\n'
        f'          "threshold": {_THRESHOLD}\n        }},\n'
        '        "hyperbolic_6thm": {\n'
        f'          "certified": {"true" if hyp.certified else "false"},\n'
        f'          "reasons": {_strings(hyp.reasons, " " * 12)}\n        }}\n      }},\n'
        f'      "circles": {circles},\n'
        f'      "constants": {_CONSTANTS},\n'
        f'      "hypotheses": {_strings(report.hypotheses, " " * 8)},\n'
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
        f" threshold={_fmt(float(GEODESIC_THRESHOLD))})"
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
_AHEAD = 2  # chunk indices each worker holds, so that it never waits for the next
_WINDOW = 4  # chunks per worker handed out past the next one to write


def analyze(config: RunConfig, stdout=None) -> int:
    """Analyze every input and print reports in input order; return status.

    This process analyzes the first chunk of ``_CHUNK`` inputs, and forked
    workers, one per usable CPU, take the rest (see :func:`_replies`); the
    bytes are those of a one-CPU run, and a run of one chunk forks nothing.
    Each export path belongs to its first input.  The JSON array has the bytes
    ``json.dumps(entries, indent=2, sort_keys=True)`` would give;
    ``tests/test_cli.py::test_writer_matches_json_dumps`` holds them equal.
    """
    out = stdout if stdout is not None else sys.stdout
    inputs = config.inputs
    exports = ([None] * len(inputs) if config.export_dir is None
               else _export_targets(inputs, config.export_dir))
    chunks = [range(i, min(i + _CHUNK, len(inputs))) for i in range(0, len(inputs), _CHUNK)]
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if forks else 1
    n = min(cpus, len(chunks) - 1) if cpus > 1 else 0  # workers to fork
    head, sep = ("[\n  ", ",\n  ") if config.json_output else ("", "\n\n")
    all_ok = True
    with contextlib.closing(_replies(chunks, n, config, exports)) as replies:
        for chunk, texts in zip(chunks, replies):
            for i, (ok, text) in zip(chunk, texts):
                all_ok = all_ok and ok
                out.write((head if i == 0 else sep) + text)
    out.write(("\n]\n" if inputs else "[]\n") if config.json_output else "\n")
    return 0 if all_ok else 2


def _analyze_chunk(chunk: range, config: RunConfig, exports: list) -> list[tuple[bool, str]]:
    render = result_to_entry if config.json_output else render_text
    results = (analyze_file(config.inputs[i], config, exports[i]) for i in chunk)
    return [(result.ok, render(result)) for result in results]


def _replies(chunks: list, n: int, config: RunConfig, exports: list):
    """Each chunk's texts, in input order: all analyzed here when ``n`` is 0;
    else the first here and the rest by ``n`` forked workers, which are all
    killed and reaped when this ends.

    The first chunk is analyzed here while the workers start, so that a
    profiler or tracer of this process sees one chunk of the work.  Each
    worker has a task pipe and a reply pipe.  It holds ``_AHEAD`` chunk
    indices and gets one more with each reply it sends, so the chunks go to
    whichever worker is free.  A reply that comes early is held until its
    turn; as no index is handed out more than ``n * _WINDOW`` past the next
    chunk to write, at most that many replies wait.
    """
    if n < 1:
        for chunk in chunks:
            yield _analyze_chunk(chunk, config, exports)
        return
    import select  # only a run that forks needs it

    ends = []  # every pipe end opened here
    workers = {}  # reply pipe's fd -> (pid, task pipe's write end, reply pipe's read end)
    poller = select.poll()
    try:
        for _ in range(n):
            for read_end, write_end in (os.pipe(), os.pipe()):
                ends += open(read_end, "rb", buffering=0), open(write_end, "wb", buffering=0)
            task_read, task_write, reply_read, reply_write = ends[-4:]
            pid = os.fork()
            if pid == 0:
                _work(task_read, reply_write, ends, chunks, config, exports)
            workers[reply_read.fileno()] = pid, task_write, reply_read
            # task_read stays open here, so that a chunk handed to a worker that
            # has ended is no broken pipe: the end of its reply pipe reports it.
            reply_write.close()
            poller.register(reply_read, select.POLLIN)
        free = [task_write for _, task_write, _ in workers.values()] * _AHEAD  # one per index
        handed, early = 1, {}  # the next index to hand out; chunk index -> texts held
        for j in range(len(chunks)):
            while j not in early:
                while free and handed < len(chunks) and handed <= j + n * _WINDOW:
                    free.pop(0).write(handed.to_bytes(4, "little"))  # at most PIPE_BUF: whole
                    handed += 1
                if not j:  # here, while the workers start on the rest
                    early[0] = _analyze_chunk(chunks[0], config, exports)
                    continue
                for fd, _ in poller.poll():
                    _, task_write, reply_read = workers[fd]
                    k, texts = _receive(reply_read)
                    early[k] = texts
                    free.append(task_write)
            yield early.pop(j)
    finally:
        for pid, _, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for end in ends:
            end.close()


def _work(task_read, reply_write, ends: list, chunks: list, config: RunConfig, exports: list):
    """A forked worker: for each chunk index read from ``task_read``, send the
    index and the chunk's texts down ``reply_write``; leave by ``os._exit``."""
    try:
        for end in ends:  # so that no pipe waits on an end that only this worker holds
            if end is not task_read and end is not reply_write:
                end.close()
        while index := task_read.read(4):
            j = int.from_bytes(index, "little")
            data = marshal.dumps((j, _analyze_chunk(chunks[j], config, exports)))
            _write_all(reply_write.fileno(), len(data).to_bytes(8, "little") + data)
        os._exit(0)  # which flushes no buffer inherited from the parent
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback, to stderr
        sys.stderr.flush()
    finally:
        os._exit(1)  # after an exception, or an interrupt


def _receive(reply_read) -> tuple[int, list[tuple[bool, str]]]:
    """A worker's next reply: a chunk index and that chunk's texts."""
    size = int.from_bytes(_read(reply_read, 8), "little")
    return marshal.loads(_read(reply_read, size))


def _read(reply_read, size: int) -> bytearray:
    """``size`` bytes, read unbuffered: poll would not see a reply held in a buffer."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        count = reply_read.readinto(view)
        if not count:  # the worker ended, maybe in the middle of a reply
            raise RuntimeError("an analysis worker ended before sending its reports")
        view = view[count:]
    return data


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
    try:
        return analyze(config)
    except BrokenPipeError:  # stdout was closed early, as by ``| head``: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 1


if __name__ == "__main__":
    sys.exit(main())
