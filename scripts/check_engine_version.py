#!/usr/bin/env python
"""CI guard: engine-relevant changes must bump ENGINE_VERSION.

Every cached result payload is keyed by the SHA-256 of its spec's
canonical JSON **plus** :data:`repro.service.spec.ENGINE_VERSION`.  A PR
that changes what the engines compute without bumping that version would
keep serving stale cache entries (and let version-skewed workers pass the
``/healthz`` handshake), silently breaking the bit-identical-results
guarantee.  This script fails CI when any *engine-relevant* module changed
between a base ref and ``HEAD`` while ENGINE_VERSION (or ``__version__``,
which it embeds) stayed the same.

Engine-relevant means: anything that can alter a result payload for a
given spec — the numeric engines, the spec serialisation itself and the
spec→payload execution path.  Service plumbing (scheduler, server, remote
dispatch, cache mechanics), tests, benchmarks and docs are exempt: they
move results around but never change their bytes.

Override: a PR that touches engine-relevant files *without* changing
results (comment fixes, dead-code removal, pure refactors) may include the
marker ``[engine-version-unchanged]`` in any commit message of the range
(or run with ``--override``), which downgrades the failure to a notice.

Usage::

    python scripts/check_engine_version.py --base origin/main

Exit codes: 0 ok, 1 bump required, 2 git plumbing failed.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from typing import List, Optional, Sequence, Tuple

#: Paths (prefixes, or exact files) whose changes can alter what a spec
#: evaluates to — and therefore require an ENGINE_VERSION bump.
ENGINE_RELEVANT = (
    "src/repro/simulation/",
    "src/repro/geometry/",
    "src/repro/core/",
    "src/repro/strategies/",
    "src/repro/faults/",
    "src/repro/related/",
    # The chunked-estimation modules fall under the directory prefixes
    # above, but are listed explicitly because they are the most likely
    # accidental-result-change sites: the per-chunk seed stream and the
    # sequential stopping rule both feed the adaptive Monte-Carlo cache
    # keys, and the adaptive branches of the two MC workloads decide how
    # many trials a payload contains.
    "src/repro/simulation/monte_carlo.py",
    "src/repro/faults/injection.py",
    "src/repro/strategies/randomized.py",
    "src/repro/analysis/sweep.py",
    "src/repro/service/spec.py",
    "src/repro/service/execute.py",
    # The experiment compiler derives per-cell seeds and content hashes;
    # changing it changes which specs (and hence payloads) a grid produces.
    "src/repro/experiment.py",
    # ``to_jsonable`` and ``encode_float`` turn every result into its
    # strict-JSON payload, so they shape every payload byte.
    "src/repro/reporting.py",
    # The binary wire codec carries result payloads between coordinator
    # and workers; an encoding change (float representation, column
    # packing) could alter result bytes even though the engines did not
    # move.  Pure transport changes (compression tuning, framing, error
    # paths) are the textbook case for the [engine-version-unchanged]
    # marker: decoded trees provably identical, no bump needed.
    "src/repro/service/wire.py",
)

#: Files whose diff constitutes a version bump.
VERSION_FILES = ("src/repro/service/spec.py", "src/repro/__init__.py")

OVERRIDE_MARKER = "[engine-version-unchanged]"

_ENGINE_VERSION_RE = re.compile(r"^ENGINE_VERSION\s*=\s*(.+)$", re.MULTILINE)
_DUNDER_VERSION_RE = re.compile(r"^__version__\s*=\s*(.+)$", re.MULTILINE)


def is_engine_relevant(path: str) -> bool:
    """True when a change to ``path`` can alter result payloads."""
    return any(
        path == entry or (entry.endswith("/") and path.startswith(entry))
        for entry in ENGINE_RELEVANT
    )


def extract_version_markers(spec_source: str, init_source: str) -> Tuple[str, str]:
    """The (ENGINE_VERSION, __version__) assignment expressions of a tree.

    The raw right-hand sides are compared textually between base and head —
    the guard needs "did it change", not the evaluated string, so it never
    imports the package under either revision.
    """
    engine = _ENGINE_VERSION_RE.search(spec_source)
    dunder = _DUNDER_VERSION_RE.search(init_source)
    return (
        engine.group(1).strip() if engine else "",
        dunder.group(1).strip() if dunder else "",
    )


def evaluate(
    changed_files: Sequence[str],
    version_changed: bool,
    override: bool,
) -> Tuple[bool, str]:
    """Pure decision core; returns ``(ok, message)``.

    Split out from the git plumbing so the rule itself is unit-testable:
    *ok* iff no engine-relevant file changed, or the version moved, or the
    override marker was given.
    """
    relevant = sorted(path for path in changed_files if is_engine_relevant(path))
    if not relevant:
        return True, "no engine-relevant files changed; no bump required"
    if version_changed:
        return True, (
            "engine-relevant files changed and ENGINE_VERSION was bumped:\n  "
            + "\n  ".join(relevant)
        )
    listing = "\n  ".join(relevant)
    if override:
        return True, (
            f"override marker {OVERRIDE_MARKER!r} present — accepting "
            f"engine-relevant changes without a bump:\n  {listing}"
        )
    return False, (
        "engine-relevant files changed without an ENGINE_VERSION bump:\n  "
        f"{listing}\n"
        "Bump ENGINE_VERSION in src/repro/service/spec.py (or __version__ in "
        "src/repro/__init__.py), then run `repro cache gc` on persistent "
        f"caches.  If results are provably unchanged, add {OVERRIDE_MARKER!r} "
        "to a commit message in this PR instead."
    )


# ----------------------------------------------------------------------
# git plumbing
# ----------------------------------------------------------------------
def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def _show(ref: str, path: str) -> str:
    try:
        return _git("show", f"{ref}:{path}")
    except subprocess.CalledProcessError:
        return ""  # file absent at that revision


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base",
        default="origin/main",
        help="ref to diff HEAD against (merge-base is used, so a branch "
        "name works even after the base moved)",
    )
    parser.add_argument(
        "--override",
        action="store_true",
        help=f"accept missing bump (same effect as {OVERRIDE_MARKER!r} in a "
        "commit message)",
    )
    args = parser.parse_args(argv)

    try:
        base = _git("merge-base", args.base, "HEAD").strip()
        changed = [
            line
            for line in _git("diff", "--name-only", base, "HEAD").splitlines()
            if line
        ]
        messages = _git("log", "--format=%B", f"{base}..HEAD")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"engine-version guard: git failed: {error}", file=sys.stderr)
        return 2

    base_markers = extract_version_markers(
        _show(base, VERSION_FILES[0]), _show(base, VERSION_FILES[1])
    )
    head_markers = extract_version_markers(
        _show("HEAD", VERSION_FILES[0]), _show("HEAD", VERSION_FILES[1])
    )
    version_changed = base_markers != head_markers
    override = args.override or OVERRIDE_MARKER in messages

    ok, message = evaluate(changed, version_changed, override)
    print(f"engine-version guard: {message}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
