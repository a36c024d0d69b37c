"""Binary cache of per-curve trace records keyed by (q, g, N).

The format carries a magic tag and version; a mismatch triggers a rebuild
rather than an error.  Writes go through a temp file and an atomic rename
so concurrent readers never observe partial records; the records go out
in fixed blocks of rows, so no record array of the whole file is ever
held.  Prime tables are not kept on disk: `polyfield.PrimeTable.build`
sieves them in well under a second at the depths the commands use.

Trace record layout (little endian, fixed width):
    magic 'HFTR' | u32 version | u32 q | u32 g | u32 N | u64 count
    then count records of (2g+2) u8 curve coefficients + N i64 traces.
"""

import itertools
import os
import struct
import tempfile

import numpy as np

TR_MAGIC = b"HFTR"
VERSION = 1
HEADER = struct.Struct("<4sIIIIQ")  # 28 bytes: magic, version, q, g, N, count
WRITE_BLOCK_ROWS = 2 ** 16  # records per block of a write: 7.7 MB at g = 6, N = 13


class CacheFormatError(RuntimeError):
    pass


def _atomic_write(path, chunks):
    """Writes each chunk of the iterable `chunks` (bytes or a C-contiguous
    array, through its buffer) in turn to a temp file, then renames it onto
    `path`; a generator's chunks are made one at a time."""
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


def _record_blocks(data):
    """The records of `data`, WRITE_BLOCK_ROWS at a time, each block one
    record array built when the writer asks for it."""
    dtype = _record_dtype(data.g, data.N)
    for lo in range(0, len(data.coeffs), WRITE_BLOCK_ROWS):
        rows = slice(lo, lo + WRITE_BLOCK_ROWS)
        block = np.empty(len(data.coeffs[rows]), dtype)
        block["Q"] = data.coeffs[rows]
        block["s"] = data.s[rows]
        yield block


def write_trace_cache(path, data):
    header = HEADER.pack(TR_MAGIC, VERSION, data.q, data.g, data.N, len(data.coeffs))
    _atomic_write(path, itertools.chain([header], _record_blocks(data)))


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
