"""Command line surface: lifting, winding plots, fixture verification,
coset enumeration, quotient invariants, and certificates.

Exit codes: 0 success, 1 inconclusive certificate, 2 bad input or missing
fixture, 3 resource or numeric failure. Reports are deterministic and are
written in full or not at all; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from .exactnum import embed_complex
from .fpgroups import (EnumerationLimit, Presentation, Word, parse_word,
                       schreier_system, serialize_presentation, tietze_reduce,
                       todd_coxeter)
from .presets import (Lattice, LatticePreset, dm_lattice, file_lattice,
                      preset_ids, read_words, verify_preset)
from .su21 import GroupMatrix

# a command imports what only it needs: lift, winding and certify import
# `pathlift`, and with it numpy; nq2, abelian --subgroup and certify import
# `nq2`; verify and every embedding (lift, winding, certify) import mpmath
if TYPE_CHECKING:
    from .pathlift import LiftedPresentation

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3

# verify's residuals grow faster than linearly in --bits (on a 2-core host,
# dm-11-7-2-2-2-12 took 0.55 s at 2^14 bits and 43 s at 200,000)
MAX_BITS = 2 ** 14


class InputError(Exception):
    """Bad arguments or unusable input files; maps to exit code 2."""


def _load_inputs(args) -> Tuple[Lattice, Optional[List[Word]]]:
    if args.preset and args.pres:
        raise ValueError("choose one of --preset or --pres, not both")
    if args.matrices and not args.pres:
        raise ValueError("--matrices needs --pres FILE")
    if args.preset:
        lattice = dm_lattice(args.preset)
    elif args.pres:
        lattice = file_lattice(args.pres, args.matrices)
    else:
        raise ValueError("missing input: pass --preset ID or --pres FILE "
                         f"(presets: {', '.join(preset_ids())})")

    subgroup: Optional[List[Word]] = None
    if args.subgroup:
        path = Path(args.subgroup)
        looks_like_path = os.sep in args.subgroup or path.suffix != ""
        if path.is_file():
            subgroup = read_words(path, lattice.presentation)
        elif isinstance(lattice, LatticePreset) and not looks_like_path:
            subgroup = lattice.subgroup_words(args.subgroup)
        else:
            raise FileNotFoundError(f"subgroup file not found: {args.subgroup}")
    return lattice, subgroup


def _require_matrices(lattice: Lattice) -> None:
    if lattice.matrices is None:
        raise InputError("this subcommand needs generator matrices: pass "
                         "--preset ID or --pres FILE with --matrices FILE")


def _lift(lattice: Lattice, samples: int) -> LiftedPresentation:
    from .pathlift import Z_NAME
    _require_matrices(lattice)
    if Z_NAME in lattice.presentation.gens:
        raise InputError(f"central generator name {Z_NAME!r} collides")
    return lattice.lift(samples)


# ------------------------------------------------------------------ lift


def cmd_lift(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    lifted = _lift(lattice, args.samples)
    pres = lifted.to_presentation()
    relators = pres.relators[:len(lifted.exponents)]  # not the centrality ones
    return (serialize_presentation(Presentation(pres.gens, relators))
            + f"# {lifted.z_name} central\n"), EXIT_OK


# ------------------------------------------------------------------ winding


# rows are %-formatted from Python floats, several times faster than numpy
# scalars, a slice at a time: the converted copy and each string stay small
# (with 1,024-sample slices the process's peak RSS was about 1.5 MB higher)
_SAMPLE_SLICE = 256


def _format_rows(row: str, *columns) -> Iterator[str]:
    """`row` %-formatted once per sample, with one field from each numpy
    column, one string per slice of samples."""
    for lo in range(0, len(columns[0]), _SAMPLE_SLICE):
        floats = [c[lo:lo + _SAMPLE_SLICE].tolist() for c in columns]
        yield (row * len(floats[0])) % tuple(chain.from_iterable(zip(*floats)))


def _svg(path) -> str:
    xs, ys = path.values.real, path.values.imag
    lo = float(min(xs.min(), ys.min()))
    hi = float(max(xs.max(), ys.max()))
    span = max(hi - lo, 1e-9)
    pad = 0.1 * span
    lo, span = lo - pad, span + 2 * pad
    size = 600.0
    px = (xs - lo) / span * size
    py = size - (ys - lo) / span * size
    points = "".join(_format_rows("%.2f,%.2f ", px, py))[:-1]
    x0, y0 = float(px[0]), float(py[0])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:.0f} '
        f'{size:.0f}">\n'
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>\n'
        f'<polyline points="{points}" fill="none" stroke="black" '
        f'stroke-width="1.5"/>\n'
        f'<circle cx="{x0:.2f}" cy="{y0:.2f}" r="5" fill="red">'
        f'<title>start (1 + 0i)</title></circle>\n'
        f'</svg>\n'
    )


def cmd_winding(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    from .pathlift import Z_NAME, generator_logs, relator_path, winding_number
    _require_matrices(lattice)
    pres = lattice.presentation
    names = list(pres.gens)
    if Z_NAME not in names:
        names.append(Z_NAME)
    try:
        word = parse_word(args.word, names)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    path = relator_path(word, generator_logs(lattice.numerics()), args.samples)
    if args.open_path:
        end = path.endpoint
        head = f"endpoint: {end.real:.9f} {end.imag:+.9f}i\n"
    else:
        head = f"winding: {winding_number(path)}\n"
    if args.svg:
        try:
            Path(args.svg).write_text(_svg(path))
        except OSError as exc:
            raise InputError(f"cannot write SVG trace: {exc}") from None
    # one join, so that the whole report is built only once
    return "".join([head, "s,re,im\n", *_format_rows(
        "%.9f,%.9f,%.9f\n", path.s, path.values.real,
        path.values.imag)]), EXIT_OK


# ------------------------------------------------------------------ verify


def _residual_at_bits(mat: GroupMatrix, bits: int) -> float:
    import mpmath
    roots: dict = {}  # shared by the entries of the matrix and the form
    with mpmath.workprec(bits + 16):
        entries, form = ([[embed_complex(e, bits, roots) for e in row]
                          for row in m] for m in (mat.exact, mat.form.matrix))
        worst = mpmath.mpf(0)
        for i in range(3):
            for j in range(3):
                acc = mpmath.mpc(0)
                for k in range(3):
                    for l in range(3):
                        acc += (entries[k][i].conjugate() * form[k][l]
                                * entries[l][j])
                worst = max(worst, abs(acc - form[i][j]))
    return float(worst)


def cmd_verify(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    if not isinstance(lattice, LatticePreset):
        raise InputError("verify checks a packaged preset: pass --preset ID")
    lines = [f"preset {lattice.name} (weights {lattice.label})"]
    for text, j in verify_preset(lattice):
        value = "1" if j == 0 else ("z" if j == 1 else f"z^{j}")
        lines.append(f"{text} = {value}")
    lines.append("all relator values match (exact arithmetic)")
    for name in lattice.presentation.gens:
        res = _residual_at_bits(lattice.matrices[name], args.bits)
        lines.append(f"unitarity residual of {name} at {args.bits} bits: "
                     f"{res:.3e}")
    return "\n".join(lines) + "\n", EXIT_OK


# ------------------------------------------------------------------ cosets


def cmd_cosets(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    words = subgroup or []
    # todd_coxeter validates the table and raises (exit 3) when it fails
    table = todd_coxeter(lattice.presentation, words,
                         max_cosets=args.max_cosets)
    lines = [f"index: {table.index}", "valid: yes"]
    if words:
        lines.append(f"normal: {'yes' if table.is_normal(words) else 'no'}")
    return "\n".join(lines) + "\n", EXIT_OK


# ------------------------------------------------------------------ subpres


def cmd_subpres(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    if not subgroup:
        raise InputError("subpres needs --subgroup FILE (or a bundled "
                         "subgroup name with --preset)")
    pres = lattice.presentation
    table = todd_coxeter(pres, subgroup, max_cosets=args.max_cosets)
    reduced = tietze_reduce(schreier_system(table, pres).presentation)
    return serialize_presentation(reduced), EXIT_OK


# ------------------------------------------------------------------ abelian / nq2


def cmd_abelian(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    pres = lattice.presentation
    if subgroup:
        from .nq2 import subgroup_abelianization
        table = todd_coxeter(pres, subgroup, max_cosets=args.max_cosets)
        inv = subgroup_abelianization(table, pres)
    else:
        inv = pres.abelianization()
    return f"abelianization: {inv.describe()}\n", EXIT_OK


def cmd_nq2(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    from .nq2 import class2_quotient, subgroup_class2
    pres = lattice.presentation
    if subgroup:
        table = todd_coxeter(pres, subgroup, max_cosets=args.max_cosets)
        q = subgroup_class2(table, pres)
    else:
        q = class2_quotient(pres)
    return (f"abelianization: {q.abelianization.describe()}\n"
            f"derived part: {q.derived_part.describe()}\n"), EXIT_OK


# ------------------------------------------------------------------ certify


def cmd_certify(lattice: Lattice, subgroup, args) -> Tuple[str, int]:
    from .nq2 import rf_certificate
    cert = rf_certificate(_lift(lattice, args.samples), subgroup,
                          max_cosets=args.max_cosets)
    return cert.report(), EXIT_OK if cert.success else EXIT_INCONCLUSIVE


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcover",
        description="Lift lattice presentations in SU(2,1) to the universal "
                    "cover and certify residual finiteness via class-2 "
                    "nilpotent quotients.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, help_text: str, needs_word: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", help="bundled preset id or weight label")
        p.add_argument("--pres", help="presentation file")
        p.add_argument("--matrices", help="matrix file (with --pres)")
        p.add_argument("--subgroup",
                       help="subgroup words file, or bundled name with --preset")
        p.add_argument("--bits", type=int, default=128,
                       help="precision bits for informational numerics")
        p.add_argument("--samples", type=int, default=256,
                       help="path samples per letter")
        p.add_argument("--max-cosets", type=int, default=10 ** 6,
                       help="coset enumeration limit")
        if needs_word:
            p.add_argument("--word", required=True,
                           help="word over the generators (may be empty)")
            p.add_argument("--svg", help="write the path trace as SVG here")
            p.add_argument("--open-path", action="store_true",
                           help="report the endpoint instead of a winding")
        p.set_defaults(handler=handler)
        return p

    add("lift", cmd_lift, "lift a presentation to the universal cover")
    add("winding", cmd_winding, "trace a word's path and report its winding",
        needs_word=True)
    add("verify", cmd_verify, "re-run a preset's exact relator checks")
    add("cosets", cmd_cosets, "enumerate cosets of a subgroup")
    add("subpres", cmd_subpres, "present a finite-index subgroup")
    add("abelian", cmd_abelian, "abelianization invariants")
    add("nq2", cmd_nq2, "class-2 nilpotent quotient invariants")
    add("certify", cmd_certify, "emit a residual-finiteness certificate")
    return parser


# one parser per process: each build leaves argparse reference cycles behind
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    for knob in ("bits", "samples", "max_cosets"):
        if getattr(args, knob) <= 0:
            print(f"error: --{knob.replace('_', '-')} must be positive",
                  file=sys.stderr)
            return EXIT_INPUT
    if args.bits < 53:
        print("error: --bits must be at least 53 (double precision)",
              file=sys.stderr)
        return EXIT_INPUT
    if args.bits > MAX_BITS:
        print(f"error: --bits must be at most {MAX_BITS}", file=sys.stderr)
        return EXIT_INPUT
    try:
        lattice, subgroup = _load_inputs(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        text, code = args.handler(lattice, subgroup, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EnumerationLimit, ValueError, ArithmeticError,
            AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # reader went away (e.g. | head); suppress the shutdown complaint
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
