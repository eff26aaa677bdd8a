#!/usr/bin/env python3
"""Regenerate the packaged catalog of real forms.

Writes one JSON document per form into ``src/cartan_ds/catalog_data/``
(or a directory given as the first argument).  Every entry is validated
end-to-end before writing: the involution must pass algebraic validation
and the stored verdict must match the rank-equality oracle.
"""

from __future__ import annotations

import sys
from pathlib import Path

from cartan_ds import (
    build_default_catalog,
    compact_cartan_verdict,
    entry_involution,
    entry_root_system,
    packaged_catalog_dir,
    write_catalog,
)


def main() -> int:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else packaged_catalog_dir()
    entries = build_default_catalog()
    bad = []
    for entry in entries:
        rs = entry_root_system(entry)
        inv = entry_involution(entry, rs=rs)
        verdict = compact_cartan_verdict(
            rs, inv, oracle_compact_rank_equal=entry.expected_verdict
        )
        if not verdict.consistent:
            bad.append(entry.id)
    if bad:
        print(f"refusing to write: verdict/oracle mismatch for {bad}", file=sys.stderr)
        return 1
    write_catalog(target, entries)
    print(f"wrote {len(entries)} entries to {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
