"""Disk cache for exact computation results, keyed by canonical JSON.

Values are small JSON documents (dimensions and ranks, never
representative cochains), so a cache hit can change nothing but wall
time: reports built from cached and fresh values are byte-identical.
"""

import hashlib
import json
import os
import sys
import tempfile

__all__ = ["DiskCache", "default_cache_dir"]


def default_cache_dir():
    env = os.environ.get("MODLIE_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "modlie")


def canonical_key(obj):
    """sha256 of the canonical JSON encoding of a key object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskCache:
    """One JSON file per entry under a cache directory; atomic writes;
    entries that are corrupted or fail valid are dropped with a warning."""

    def __init__(self, path=None):
        self.path = path or default_cache_dir()
        os.makedirs(self.path, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _file(self, key_obj):
        return os.path.join(self.path, canonical_key(key_obj) + ".json")

    def get(self, key_obj, valid=None):
        fn = self._file(key_obj)
        try:
            with open(fn, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            value = doc["value"]
            if valid is not None and not valid(value):
                raise ValueError("inconsistent value %r" % (value,))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError) as e:
            print("modlie cache: discarding corrupted entry %s (%s)"
                  % (os.path.basename(fn), e), file=sys.stderr)
            try:
                os.remove(fn)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key_obj, value):
        fn = self._file(key_obj)
        doc = {"key": key_obj, "value": value}
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, fn)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def entries(self):
        out = []
        for name in sorted(os.listdir(self.path)):
            if name.endswith(".json"):
                full = os.path.join(self.path, name)
                out.append((name, os.path.getsize(full)))
        return out

    def stats(self):
        ents = self.entries()
        return {"path": self.path, "entries": len(ents),
                "bytes": sum(s for _, s in ents),
                "hits": self.hits, "misses": self.misses}

    def clear(self):
        n = 0
        for name, _ in self.entries():
            os.remove(os.path.join(self.path, name))
            n += 1
        return n
