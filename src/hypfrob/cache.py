"""Binary cache of per-curve trace records keyed by (q, g, N).

The format carries a magic tag and version; a mismatch triggers a rebuild
rather than an error.  Writes go through a temp file and an atomic rename
so concurrent readers never observe partial records.  Prime tables are not
kept on disk: `polyfield.PrimeTable.build` sieves them in well under a
second at the depths the commands use.

Trace record layout (little endian, fixed width):
    magic 'HFTR' | u32 version | u32 q | u32 g | u32 N | u64 count
    then count records of (2g+2) u8 curve coefficients + N i64 traces.
"""

import os
import struct
import tempfile

import numpy as np

TR_MAGIC = b"HFTR"
VERSION = 1
HEADER = struct.Struct("<4sIIIIQ")  # 28 bytes: magic, version, q, g, N, count


class CacheFormatError(RuntimeError):
    pass


def _atomic_write(path, *chunks):
    """Writes each chunk (bytes or a C-contiguous array, through its buffer)
    in turn to a temp file, then renames it onto `path`."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-cache-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- trace records ---------------------------------------------------------------

def trace_cache_path(cache_dir, q, g, N):
    return os.path.join(cache_dir, f"traces_q{q}_g{g}_N{N}.bin")


def _record_dtype(g, N):
    return np.dtype([("Q", np.uint8, (2 * g + 2,)), ("s", "<i8", (N,))])


def write_trace_cache(path, data):
    n = len(data.coeffs)
    records = np.empty(n, _record_dtype(data.g, data.N))
    records["Q"] = data.coeffs
    records["s"] = data.s
    _atomic_write(path, HEADER.pack(TR_MAGIC, VERSION, data.q, data.g, data.N, n), records)


def read_trace_cache(path):
    """Returns (q, g, N, coeffs, s); raises CacheFormatError on mismatch.

    `coeffs` is a C-contiguous uint8 array, `s` an int64 one.  The record
    section is read once, straight into the record array, after its size
    has been checked against the file's."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise CacheFormatError(f"{path}: {len(head)} bytes, shorter than the header")
        magic, version, q, g, N, count = HEADER.unpack(head)
        if magic != TR_MAGIC:
            raise CacheFormatError(f"{path}: bad magic")
        if version != VERSION:
            raise CacheFormatError(f"{path}: version {version} != {VERSION}")
        # sizes in Python ints first: a header's g or N can be beyond any dtype,
        # and no cache is written with zero records
        body = os.fstat(fh.fileno()).st_size - HEADER.size
        if not count or body != count * (2 * g + 2 + 8 * N):
            raise CacheFormatError(f"{path}: record section does not match the header")
        records = np.empty(count, _record_dtype(g, N))
        if fh.readinto(records) != body:
            raise CacheFormatError(f"{path}: record section shorter than its size")
    coeffs = np.ascontiguousarray(records["Q"])
    s = records["s"].astype(np.int64)
    return q, g, N, coeffs, s


def find_trace_cache(cache_dir, q, g, N):
    """Path of a cached trace file with depth >= N, preferring the shallowest."""
    if not cache_dir or not os.path.isdir(cache_dir):
        return None
    prefix = f"traces_q{q}_g{g}_N"
    best, best_n = None, None
    for name in os.listdir(cache_dir):
        if name.startswith(prefix) and name.endswith(".bin"):
            try:
                n = int(name[len(prefix):-4])
            except ValueError:
                continue
            if n >= N and (best_n is None or n < best_n):
                best, best_n = os.path.join(cache_dir, name), n
    return best
