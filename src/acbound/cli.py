"""Command-line front end: limit tables, block encoding, verification suites."""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__
from .bound_engine import (
    SCALE,
    Refinement,
    reference_length,
    solve_limit,
    upper_limit,
)
from .entropy_model import (
    ComponentKind, ParameterError, crude_bound, sequence_length, symbolize, table_for,
)
from .quantization import QuantTable, pow2_table, scaled_annex_k
from .transform import level_shift
from .verification import (
    SearchConfig,
    adversarial_search,
    encode_block,
    soundness_fuzz,
    toy_oracle,
)

PUBLISHED_SF_SET = ("1/64", "1/16", "1/8", "1/6", "1/4", "1/2", "1")

_COMPONENTS = {
    "lum": (ComponentKind.LUMINANCE,),
    "luminance": (ComponentKind.LUMINANCE,),
    "chroma": (ComponentKind.CHROMINANCE,),
    "chrominance": (ComponentKind.CHROMINANCE,),
    "both": (ComponentKind.LUMINANCE, ComponentKind.CHROMINANCE),
}
_SINGLE_COMPONENTS = [k for k in _COMPONENTS if k != "both"]

# the levels each --refinement choice runs; the reported result is the tightest
_REFINEMENTS = {
    "base": (Refinement.BASE,),
    "capacity": (Refinement.CAPACITY,),
    "maxconfig": (Refinement.MAXCONFIG,),
    "best": tuple(Refinement),
}


def _timestamp() -> str | None:
    # only stamped when SOURCE_DATE_EPOCH pins it; keeps outputs byte-stable
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise ParameterError(f"bad SOURCE_DATE_EPOCH {epoch!r}: {exc}") from None


def _manifest(command: str, parameters: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _parse_sf(text: str) -> Fraction:
    # only parses: scale_table owns the supported range
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse scale factor {text!r}: {exc}") from None


def _single_table(args) -> tuple[Fraction, ComponentKind, QuantTable]:
    sf = _parse_sf(args.sf)
    component = _COMPONENTS[args.component][0]
    return sf, component, scaled_annex_k(component, sf)


class _Report(NamedTuple):
    """What a command found; ``main`` prints it and maps ``ok`` to the exit status."""

    manifest: dict
    payload: dict      # the --json body beside the manifest
    lines: list[str]   # the text or CSV body above the manifest line
    ok: bool = True


# -- limits ------------------------------------------------------------------


def cmd_limits(args) -> _Report:
    sf_texts = args.sf or list(PUBLISHED_SF_SET)
    components = _COMPONENTS[args.component]
    # every table before any limit, so a bad sf is reported before any work
    tables = [[scaled_annex_k(comp, _parse_sf(t)) for comp in components] for t in sf_texts]
    manifest = _manifest("limits", {
        "sf": sf_texts, "component": args.component, "refinement": args.refinement,
    })

    levels = _REFINEMENTS[args.refinement]
    rows = [
        (text, [min((upper_limit(comp, q, r) for r in levels), key=lambda res: res.limit)
                for comp, q in zip(components, qs)])
        for text, qs in zip(sf_texts, tables)
    ]
    payload = {"crude_bound": crude_bound(), "limits": [
        {"sf": text, **{c.value: res.to_json_dict() for c, res in zip(components, results)}}
        for text, results in rows
    ]}
    names = [comp.value for comp in components]
    if args.csv:
        lines = ["sf," + ",".join(names)]
        lines += [f"{text}," + ",".join(str(res.limit) for res in results)
                  for text, results in rows]
    else:
        lines = [f"{'scale factor':>12s}" + "".join(f"{n:>14s}" for n in names)]
        lines += [f"{text:>12s}" + "".join(f"{res.limit:>14d}" for res in results)
                  for text, results in rows]
    return _Report(manifest, payload, lines)


# -- encode ------------------------------------------------------------------


def _read_block_file(path: str) -> np.ndarray:
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 8:
        raise ParameterError(f"{path}: expected 8 non-empty lines, found {len(lines)}")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != 8:
            raise ParameterError(f"{path}:{lineno}: expected 8 values, found {len(tokens)}")
        row = []
        for col, token in enumerate(tokens, start=1):
            try:
                value = int(token)
            except ValueError:
                raise ParameterError(f"{path}:{lineno}:{col}: not an integer: {token!r}") from None
            if not 0 <= value <= 255:
                raise ParameterError(f"{path}:{lineno}:{col}: sample {value} outside 0..255")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def cmd_encode(args) -> _Report:
    sf, component, q = _single_table(args)  # before the file: a bad sf is reported first
    raw = _read_block_file(args.block_file)
    report = encode_block(level_shift(raw), q, component)
    manifest = _manifest("encode", {
        "block_file": args.block_file, "sf": args.sf, "component": args.component,
    })
    lines = [
        f"component:      {component.value}",
        f"scale factor:   {sf}",
        f"ac bits:        {report.ac_bits}",
        f"limit:          {report.limit}",
        f"slack:          {report.slack}",
        f"eob present:    {report.symbols.has_eob}",
        "symbols:        " + " ".join(f"({r},{s})" for r, s in report.symbols.symbols),
    ]
    return _Report(manifest, {"report": report.to_json_dict()}, lines)


# -- verify ------------------------------------------------------------------


def _check(checks: list[dict], name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": ok, "detail": detail})


def _verify_deltas(args, checks: list[dict]) -> None:
    sf, component, q = _single_table(args)
    ref = reference_length(component, pow2_table(q))
    # the checks read the exact prefix sums the limit maximized over
    result = solve_limit(ref, Refinement.BASE, sf=sf)
    # recounted symbol by symbol: all 63 reference sizes are nonzero, so no EOB
    recount = sequence_length(table_for(component), symbolize(ref.sbar))
    _check(checks, "reference length", ref.ref_len == recount, f"len={ref.ref_len}")
    _check(checks, "objective zero at the origin", result.scaled_objective[(0, 0)] == 0)
    _check(checks, "limit covers reference", result.limit >= ref.ref_len,
           f"limit={result.limit}")
    if component is ComponentKind.CHROMINANCE and sf == 1:
        _check(checks, "losses 2n-1",
               result.loss_prefix[1:] == tuple((2 * n - 1) * SCALE for n in range(1, 55)))
        _check(checks, "size-9 gains 3a",
               result.gain9_prefix == tuple(3 * a * SCALE for a in range(16)))
        _check(checks, "size-10 gains 6b",
               result.gain10_prefix == tuple(6 * b * SCALE for b in range(4)))
        _check(checks, "limit 349", result.limit == 349 and result.argmax == (0, 0))
    total = sum(ref.head_sets.census.values())
    _check(checks, "evaluated cases 20159", total == 20159, f"total={total}")


def _verify_toy(args, checks: list[dict]) -> None:
    exponents = None
    if args.exponents is not None:
        try:
            exponents = tuple(int(t) for t in args.exponents.split(","))
        except ValueError:
            raise ParameterError(f"cannot parse exponents {args.exponents!r}") from None
    for component in _COMPONENTS[args.component]:
        exact, limit = toy_oracle(args.n, component, exponents)
        _check(checks, f"toy n={args.n} {component.value}", limit >= exact,
               f"exact={exact} limit={limit} gap={limit - exact}")


def _verify_fuzz(args, checks: list[dict]) -> None:
    sf_texts = list(PUBLISHED_SF_SET) if args.sf is None else [args.sf]
    for component in _COMPONENTS[args.component]:
        for text in sf_texts:
            q = scaled_annex_k(component, _parse_sf(text))
            summary = soundness_fuzz(args.trials, q, args.seed)
            ok = summary["min_slack"] >= 0
            detail = f"max_bits={summary['max_bits']} min_slack={summary['min_slack']}"
            if not ok:
                # the witness: raw samples 0..255 in raster order
                raw = (summary["worst_block"] + 128).ravel().tolist()
                detail += " block=" + ",".join(map(str, raw))
            _check(checks, f"fuzz {component.value} sf={text}", ok, detail)


def cmd_verify(args) -> _Report:
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("cmd", "func", "run_suite", "json", "seed")}
    manifest = _manifest("verify", parameters, seed=getattr(args, "seed", None))
    checks: list[dict] = []
    args.run_suite(args, checks)
    ok = all(check["ok"] for check in checks)
    lines = [f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}"
             + (f" ({c['detail']})" if c["detail"] else "") for c in checks]
    return _Report(manifest, {"ok": ok, "checks": checks}, lines, ok)


def cmd_search(args) -> _Report:
    sf, component, q = _single_table(args)
    cfg = SearchConfig(
        component, sf, iterations=args.iterations, restarts=args.restarts,
        seed=args.seed, mutation=args.mutation,
    )
    report = adversarial_search(cfg, q)
    manifest = _manifest("search", {
        "sf": args.sf, "component": args.component,
        "iterations": args.iterations, "restarts": args.restarts,
        "mutation": args.mutation,
    }, seed=cfg.seed)
    gap = (report.limit - report.ac_bits) / report.ac_bits
    lines = [
        f"best ac bits:   {report.ac_bits}",
        f"limit:          {report.limit}",
        f"relative gap:   {gap:.4f}",
        "block:",
    ]
    lines.extend("  " + " ".join(f"{v + 128:3d}" for v in row) for row in report.block)
    return _Report(manifest, {"report": report.to_json_dict()}, lines)


def _output_group(parser: argparse.ArgumentParser):
    # every command takes --json; limits adds --csv to the same exclusive group
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acbound",
        description="Worst-case AC code-length limits for JPEG Baseline 8x8 blocks.",
    )
    parser.add_argument("--version", action="version", version=f"acbound {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("limits", help="compute upper limits for scale factors")
    sf_choice = p.add_mutually_exclusive_group()
    sf_choice.add_argument("--sf", action="append",
                           help="scale factor as a fraction, repeatable")
    sf_choice.add_argument("--sf-set", choices=["paper"],
                           help="use the published scale-factor set")
    p.add_argument("--component", choices=sorted(_COMPONENTS), default="both")
    p.add_argument("--refinement", choices=list(_REFINEMENTS), default="best")
    _output_group(p).add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("encode", help="encode one 8x8 block from a text file")
    p.add_argument("block_file", help="8 lines of 8 raw samples in 0..255")
    p.add_argument("--sf", required=True)
    p.add_argument("--component", choices=_SINGLE_COMPONENTS, default="lum")
    _output_group(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", help="run a verification suite")
    vsub = p.add_subparsers(dest="suite", required=True)

    v = vsub.add_parser("deltas", help="check the enumeration against known values")
    v.add_argument("--sf", default="1")
    v.add_argument("--component", choices=_SINGLE_COMPONENTS, default="chroma")
    _output_group(v)
    v.set_defaults(func=cmd_verify, run_suite=_verify_deltas)

    v = vsub.add_parser("toy", help="exact relaxed maximum against the engine limit")
    v.add_argument("--n", type=int, default=4, help="number of AC positions, 1..63")
    v.add_argument("--component", choices=sorted(_COMPONENTS), default="both")
    v.add_argument("--exponents", help="comma-separated exponent vector")
    _output_group(v)
    v.set_defaults(func=cmd_verify, run_suite=_verify_toy)

    v = vsub.add_parser("fuzz", help="random blocks must stay under the limit")
    v.add_argument("--trials", type=int, default=10_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--sf", help="single scale factor; defaults to the published set")
    v.add_argument("--component", choices=sorted(_COMPONENTS), default="both")
    _output_group(v)
    v.set_defaults(func=cmd_verify, run_suite=_verify_fuzz)

    p = sub.add_parser("search", help="hill-climb for long-coded blocks")
    p.add_argument("--sf", required=True)
    p.add_argument("--component", choices=_SINGLE_COMPONENTS, default="lum")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--mutation", choices=["single_pixel", "pixel_pair"],
                   default="pixel_pair")
    p.add_argument("--seed", type=int, default=0)
    _output_group(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    """Run one command and print its report, after all of its work is done.

    Exit 0 when every check held, 1 when one failed, 2 on bad input
    (``ParameterError``), with nothing on stdout.  Any other exception is
    a fault of the program and propagates."""
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        body = {"manifest": report.manifest, **report.payload}
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        for line in report.lines:
            print(line)
        print(f"# manifest: {json.dumps(report.manifest, sort_keys=True)}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
