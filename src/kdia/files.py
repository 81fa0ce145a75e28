"""The file boundary: every path the package reads, writes or creates goes
through here, and a failure is a typed error naming the path."""

import contextlib
import os

from .errors import ConfigError


def read(path, error, text=False):
    """The bytes of ``path``, or with ``text`` its UTF-8 text with universal
    newlines. A failed read or non-UTF-8 text raises ``error`` naming it."""
    try:
        with open(path, "r" if text else "rb", encoding="utf-8" if text else None) as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text") from exc


def write(path, blob: bytes, error) -> None:
    """Replace ``path`` with ``blob`` whole, by renaming ``<path>.tmp`` over it.
    On failure ``path`` keeps its bytes; an ``OSError`` raises ``error`` naming it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # after a successful rename there is none


def make_out_dir(path, *names) -> list:
    """Create the directory ``path`` unless it exists; return the paths of the
    files ``names`` in it. Any failure is a ``ConfigError`` naming ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--out-dir {path}: not a directory") from exc
    except OSError as exc:
        raise ConfigError(f"--out-dir {path}: {exc.strerror}") from exc
    for name in names:
        if os.path.isdir(os.path.join(path, name)):
            raise ConfigError(f"--out-dir {path}: {name} is a directory")
    return [os.path.join(path, name) for name in names]
