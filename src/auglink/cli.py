"""Command-line front end: batch analysis of link-diagram files.

``auglink analyze`` runs the full pipeline on each input file — parse,
resolve the twist-region selection (reducing any mixed-sign chains),
augment, and evaluate every geometric bound and certificate — then prints
one report per file, in input order, as text or JSON.

Exit status is 0 when every file was analyzed (certificates may still be
not-certified; that is data, not an error) and 2 when any file failed to
parse or validate.  Failures are reported per file and processing
continues with the remaining inputs.  Each report is written as soon as
its file is done.  A failed export, whether the drawing or the write
failed, keeps the report and adds a warning.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .augment import AugmentedLink, augment, export_augmented_diagram
from .diagram import link_components, parse_document, serialize_diagram
from .errors import AuglinkError, ExportError, InvalidDiagramError
from .geometry import CertificateReport, build_report, trivial_report
from .twist import resolve_selection


@dataclass(frozen=True)
class RunConfig:
    """Everything one ``analyze`` invocation needs."""

    inputs: tuple[str, ...]
    json_output: bool = False
    attest_hyperbolic: bool = False
    export_dir: str | None = None
    strict: bool = False


@dataclass(frozen=True)
class FileResult:
    """Outcome of analyzing a single input file."""

    file: str
    ok: bool
    name: str | None = None
    report: CertificateReport | None = None
    warnings: tuple[str, ...] = ()
    export_path: str | None = None
    error: str | None = None


def analyze_file(path: str, config: RunConfig) -> FileResult:
    """Run the pipeline on one file; never raises for per-file problems."""
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
            and link_components(reduced).component_count
            < link_components(diagram).component_count
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
            try:
                export_path = _write_export(path, config.export_dir, augmented)
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


def _write_export(path: str, export_dir: str, augmented: AugmentedLink) -> str:
    exported = export_augmented_diagram(augmented)
    out_dir = Path(export_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (Path(path).stem + ".augmented.json")
    try:
        out_path.write_text(serialize_diagram(exported) + "\n", encoding="utf-8")
    except OSError:
        with contextlib.suppress(OSError):
            out_path.unlink(missing_ok=True)  # leave no partial export behind
        raise
    return str(out_path)


# ============================================================================
# Rendering
# ============================================================================


def report_to_dict(report: CertificateReport) -> dict:
    """Render a report as the JSON-ready dict the shipped schema describes."""
    circles = []
    for circle, estimate in zip(report.circles, report.estimates):
        circles.append(
            {
                "id": circle.id,
                "m": circle.strand_count,
                "c": estimate.c,
                "epsilon": circle.epsilon,
                "n": circle.filling_n,
                "slope_length_lb": estimate.length_lb,
                "normalized_length_lb": estimate.normalized_lb,
            }
        )
    geo = report.geodesic_circles
    volume = None
    if report.vol_augmentation_lb is not None:
        volume = {
            "augmentation_lb": report.vol_augmentation_lb,
            "euler_char_cut": report.euler_char_cut,
        }
        if report.vol_filled_lb is not None:
            volume["filled_lb"] = report.vol_filled_lb
    return {
        "hypotheses": list(report.hypotheses),
        "tw": report.tw,
        "circles": circles,
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
        "constants": report.constants.as_dict(),
    }


def result_to_entry(result: FileResult) -> dict:
    entry: dict = {"file": result.file, "ok": result.ok}
    if not result.ok:
        entry["error"] = result.error or "unknown error"
        return entry
    entry["name"] = result.name
    assert result.report is not None
    entry["report"] = report_to_dict(result.report)
    if result.warnings:
        entry["warnings"] = list(result.warnings)
    if result.export_path is not None:
        entry["export"] = result.export_path
    return entry


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


def analyze(config: RunConfig, stdout=None) -> int:
    """Analyze every input and print reports in input order; return status.

    Each report is written as soon as its file is done.  The JSON array has
    the bytes ``json.dumps(entries, indent=2, sort_keys=True)`` would give.
    """
    out = stdout if stdout is not None else sys.stdout
    all_ok = True
    for i, path in enumerate(config.inputs):
        result = analyze_file(path, config)
        all_ok = all_ok and result.ok
        if config.json_output:
            entry = json.dumps(result_to_entry(result), indent=2, sort_keys=True)
            out.write(("[\n  " if i == 0 else ",\n  ") + entry.replace("\n", "\n  "))
        else:
            out.write(("" if i == 0 else "\n\n") + render_text(result))
    if config.json_output:
        out.write("\n]\n" if config.inputs else "[]\n")
    else:
        out.write("\n")
    return 0 if all_ok else 2


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
