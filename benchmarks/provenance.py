"""Which source tree a benchmark measured.

``source_sha256(src)`` is the SHA-256 over the ``.py`` files under
``src``, in sorted order of their paths relative to it: each path (UTF-8,
``/``-separated, then a NUL byte) followed by the file's bytes. It reads
no cache or build output, so a checkout of a commit and its
``git archive`` give the same digest, and a recorded digest names a
commit without naming the directory it was measured in:

    git archive COMMIT src | tar -x -C DIR
    python benchmarks/provenance.py DIR/src
"""

import hashlib
import sys
from pathlib import Path


def source_sha256(src) -> str:
    root = Path(src)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    for src in sys.argv[1:]:
        print(source_sha256(src), src)
