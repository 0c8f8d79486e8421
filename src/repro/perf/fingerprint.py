"""Code fingerprinting for the result cache.

A cached sweep point is only valid while the *simulation semantics* are
unchanged: the same (experiment function, parameters, seed) must map to
the same result document. Rather than guessing which edits are
semantics-preserving, the cache keys every entry by a digest of the
source files that define the simulator's behaviour. Any edit to those
files — even a comment — invalidates the cache, which errs on the side
of re-running; a stale hit would silently report numbers the current
code no longer produces.

The digest covers the whole ``repro`` package except an explicit
exclude list: the :mod:`repro.perf` layer itself (changing how sweeps
are *scheduled* must not throw away correct results) and the CLI front
end. Excluding by name rather than including by name means a new module
— or an old one nobody thought shaped results — is covered by default.
Docs, tests, and benchmarks live outside the package.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["code_fingerprint", "FINGERPRINT_EXCLUDE"]

#: Top-level entries of the ``repro`` package left out of the digest.
FINGERPRINT_EXCLUDE = ("perf", "__main__.py")


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: Path | None = None) -> str:
    """Return a hex digest over the package's result-shaping source.

    ``root`` defaults to the installed ``repro`` package directory; tests
    point it at a synthetic tree to exercise invalidation.
    """
    base = Path(root) if root is not None else _package_root()
    digest = hashlib.sha256()
    for file in sorted(base.rglob("*.py")):
        rel = file.relative_to(base)
        if rel.parts[0] in FINGERPRINT_EXCLUDE:
            continue
        digest.update(rel.as_posix().encode())
        digest.update(b"\0")
        digest.update(file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
