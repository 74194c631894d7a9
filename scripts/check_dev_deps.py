#!/usr/bin/env python3
"""Unused workspace dev-dependency gate.

For every package manifest in the repository (the root package and each
crate under crates/ and devtools/), reads its `[dev-dependencies]` and
fails when one names a `pstrace-*` crate that none of the package's own
`.rs` files mention (as `pstrace_<name>`). A package's files are those
under its directory, minus nested packages and build output.

Run from anywhere: python3 scripts/check_dev_deps.py
"""

import pathlib
import sys
import tomllib

REPO = pathlib.Path(__file__).resolve().parent.parent
SKIP_DIRS = {"target", ".git", "perfbench"}


def package_dirs():
    """Every directory under the repository holding a package manifest."""
    for manifest in sorted(REPO.rglob("Cargo.toml")):
        parts = manifest.relative_to(REPO).parts
        if SKIP_DIRS.intersection(parts):
            continue
        with manifest.open("rb") as f:
            if "package" in tomllib.load(f):
                yield manifest.parent


def own_sources(root, nested):
    """The `.rs` files of the package at `root`, minus nested packages."""
    for path in root.rglob("*.rs"):
        rel = path.relative_to(root).parts
        if SKIP_DIRS.intersection(rel):
            continue
        if any(root / n in path.parents for n in nested):
            continue
        yield path


def main():
    packages = list(package_dirs())
    unused = []
    for root in packages:
        with (root / "Cargo.toml").open("rb") as f:
            dev = tomllib.load(f).get("dev-dependencies", {})
        names = [n for n in dev if n.startswith("pstrace-")]
        if not names:
            continue
        nested = [p.relative_to(root) for p in packages if root in p.parents]
        text = "\n".join(p.read_text() for p in own_sources(root, nested))
        for name in names:
            if name.replace("-", "_") not in text:
                unused.append(f"{(root / 'Cargo.toml').relative_to(REPO)}: {name}")
    if unused:
        print("dev-dependencies no file of their package mentions:", file=sys.stderr)
        for line in unused:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"dev-dependencies: {len(packages)} manifests checked, none unused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
