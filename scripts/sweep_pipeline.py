#!/usr/bin/env python3
"""Sweep the strong-regularization pipeline over the whole catalog.

For every form with at least one split direction, run the pipeline on the
default datum (infinitesimal character rho, exponent the restriction of the
antidominant orbit element) and tabulate the outcome: which line parameter k
and which shift weight the search settles on, and the final safety margin.

Usage:  python scripts/sweep_pipeline.py [--max-rank R] [--worst-case]
"""

from __future__ import annotations

import argparse
import time

from cartan_ds import (
    FormalDSDatum,
    NoAdmissibleDirection,
    SearchExhausted,
    TranslationConfig,
    admissible_exponents,
    apply,
    build_default_catalog,
    dominant_representative,
    entry_involution,
    entry_root_system,
    longest_element,
    restricted_roots,
    strong_regularization,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=3, help="skip forms above this rank")
    ap.add_argument("--worst-case", action="store_true", help="use every admissible exponent")
    args = ap.parse_args()

    cfg = TranslationConfig(worst_case_exponents=args.worst_case)
    rows = []
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        if rs.rank > args.max_rank:
            continue
        inv = entry_involution(entry, rs=rs)
        rrs = restricted_roots(rs, inv)
        dom, _ = dominant_representative(rs, rs.rho)
        anti = apply(longest_element(rs), dom)
        exps = frozenset({inv.restrict(anti)})
        if args.worst_case:
            exps = admissible_exponents(rs, inv, rrs, rs.rho, cfg.cap) or exps
        datum = FormalDSDatum(weight=rs.rho, exponents=exps, label=entry.id)
        t0 = time.monotonic()
        try:
            res = strong_regularization(rs, inv, rrs, datum, cfg)
            margin = res.certificates.base_margin
            rows.append(
                (
                    entry.id,
                    entry.cartan_type,
                    str(res.k),
                    str(len(res.mus)),
                    f"{float(margin):.4f}" if margin is not None else "-",
                    f"{(time.monotonic() - t0) * 1000:.0f}ms",
                )
            )
        except NoAdmissibleDirection:
            rows.append((entry.id, entry.cartan_type, "-", "-", "no split directions", ""))
        except SearchExhausted as exc:
            best = exc.best
            note = "exhausted" + (
                f" (best margin {float(best.min_margin):.4f})"
                if best is not None and best.min_margin is not None
                else ""
            )
            rows.append((entry.id, entry.cartan_type, "-", "-", note, ""))

    headers = ("form", "type", "k", "#shifts", "margin / note", "time")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
