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


def _atomic_write(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-cache-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- trace records ---------------------------------------------------------------

def trace_cache_path(cache_dir, q, g, N):
    return os.path.join(cache_dir, f"traces_q{q}_g{g}_N{N}.bin")


def write_trace_cache(path, data):
    n, width = data.coeffs.shape
    header = HEADER.pack(TR_MAGIC, VERSION, data.q, data.g, data.N, n)
    dtype = np.dtype([("Q", np.uint8, (width,)), ("s", "<i8", (data.N,))])
    records = np.empty(n, dtype)
    records["Q"] = data.coeffs
    records["s"] = data.s
    _atomic_write(path, header + records.tobytes())


def read_trace_cache(path):
    """Returns (q, g, N, coeffs, s); raises CacheFormatError on mismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER.size:
        raise CacheFormatError(f"{path}: {len(blob)} bytes, shorter than the header")
    magic, version, q, g, N, count = HEADER.unpack_from(blob)
    if magic != TR_MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    if version != VERSION:
        raise CacheFormatError(f"{path}: version {version} != {VERSION}")
    # sizes in Python ints first: a header's g or N can be beyond any dtype,
    # and no cache is written with zero records
    width = 2 * g + 2
    body = blob[HEADER.size:]
    if not count or len(body) != count * (width + 8 * N):
        raise CacheFormatError(f"{path}: record section does not match the header")
    dtype = np.dtype([("Q", np.uint8, (width,)), ("s", "<i8", (N,))])
    records = np.frombuffer(body, dtype)
    coeffs = records["Q"].copy()
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
