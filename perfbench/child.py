"""Run ``auglink analyze`` in this process, as the console script does.

Usage: ``python3 perfbench/child.py OUT.json [--trace] analyze FILE... [FLAGS]``

At exit, OUT.json gets this process's peak resident memory (``VmHWM``; the
``ru_maxrss`` a parent sees from ``wait4`` also counts the parent's own
pages at the time of the spawn) and, with ``--trace``, the spans.

Tracing does not instrument the package: it replaces the names that
``auglink.cli`` calls with timing wrappers and keeps every span in memory.
A span is ``[name, file, start_ns, end_ns, parent, error, counts]``, where
``parent`` indexes the span that was open when it started (-1 for none)
and ``file`` is the input file being analyzed (None outside one).
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

from auglink import cli

spans: list[list] = []
_open: list[int] = []
_file: list[str | None] = [None]


def _counts_parse(result, args, kwargs):
    return {"crossings": len(result.diagram.crossings)}


def _counts_resolve(result, args, kwargs):
    diagram = args[0]
    annotations = args[1] if len(args) > 1 else kwargs.get("annotations", ())
    reduced, selection = result
    return {
        "cancelled": len(diagram.crossings) - len(reduced.crossings),
        "regions": selection.region_count,
        "annotated": len(annotations),
    }


def _counts_export(result, args, kwargs):
    return {"crossings": len(result.crossings)}


def _counts_file(result, args, kwargs):
    return {"ok": int(result.ok)}


# cli global -> (span name, counter); one span per call per file.
WRAPPED = {
    "analyze": ("cli.analyze", None),
    "analyze_file": ("cli.file", _counts_file),
    "parse_document": ("diagram.parse", _counts_parse),
    "resolve_selection": ("twist.resolve", _counts_resolve),
    "augment": ("augment.augment", None),
    "build_report": ("geometry.report", None),
    "trivial_report": ("geometry.report", None),
    "_write_export": ("cli.write", None),
    "export_augmented_diagram": ("augment.export", _counts_export),
    "result_to_entry": ("cli.render", None),
}


def _wrap(fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "cli.file":
            _file[0] = args[0]
        index = len(spans)
        span = [name, _file[0], time.perf_counter_ns(), 0,
                _open[-1] if _open else -1, None, None]
        spans.append(span)
        _open.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[3] = time.perf_counter_ns()
            _open.pop()
            if name == "cli.file":
                _file[0] = None
        if counter is not None:
            span[6] = counter(result, args, kwargs)
        return result

    return traced


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    trace = cli_args[:1] == ["--trace"]
    if trace:
        cli_args = cli_args[1:]
        for attr, (name, counter) in WRAPPED.items():
            setattr(cli, attr, _wrap(getattr(cli, attr), name, counter))
    try:
        # Through the module attribute, so that ``analyze`` is wrapped too.
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"peak_rss_kb": peak_rss_kb(), "spans": spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
