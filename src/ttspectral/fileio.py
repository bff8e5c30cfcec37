"""Matrix and parameter-set persistence.

Both formats put a human-readable UTF-8 header in front of raw
little-endian float64 payloads, so headers diff cleanly while payloads
round-trip bit for bit.

Each format has one acceptance rule: a reader parses only what it needs to
rebuild the object, then rejects the file unless the bytes its writer
writes for that object are the file's.  Every file a reader accepts thus
writes back bit for bit, and any header or manifest the writer would not
write (a reordered field, ``rows=02``, an extra line) is a
:class:`~.errors.FileFormatError`.

Matrix files are one header line::

    STTPMAT v1 rows=<R> cols=<C> dtype=f64 order=row-major\n

followed by exactly ``8 * R * C`` payload bytes in row-major order.

Parameter files open with a manifest section terminated by a blank line:
scheme, dims, rank, spectrum mode, regularizer weight, the sign vector
(identity spectrum only; signs are not free parameters and live in the
manifest), the factorizations and rank schedule (chain scheme only), and
one ``block=<name> <count>`` line per layout and, in the learned modes,
one for sigma.  The payload is the set's :func:`~.autodiff.pack` vector,
read back onto the scheme's structure record (``SCHEMES[name].unpack``),
one parameter set per read; the block counts add up to
its length, the scheme's free-parameter count, which the reader checks
from the dims and rank before it builds any layout.
"""

from __future__ import annotations

import numpy as np

from .autodiff import pack
from .errors import FileFormatError
from .schemes import SCHEMES
from .spectral import init_spectrum
from .spectrum_modes import IDENTITY
from .sttp import core_specs  # noqa: F401  (perfbench/spans.py patches it)

__all__ = ["write_matrix", "read_matrix", "write_params", "read_params"]

_MATRIX_MAGIC = "STTPMAT v1"
_PARAMS_MAGIC = "STTPPARAMS v1"


def _matrix_header(rows: int, cols: int) -> bytes:
    return (f"{_MATRIX_MAGIC} rows={rows} cols={cols} dtype=f64 "
            "order=row-major\n").encode("utf-8")


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise FileFormatError("matrix files hold 2-D arrays")
    with open(path, "wb") as fh:
        fh.write(_matrix_header(*m.shape))
        fh.write(np.ascontiguousarray(m).astype("<f8", copy=False))


def read_matrix(path) -> np.ndarray:
    """The matrix whose :func:`write_matrix` bytes are the file's."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        rows, cols = (int(field.partition(b"=")[2])
                      for field in header.split(b" ")[2:4])
    except ValueError:  # no two integer fields: no header matches
        rows = cols = -1
    if min(rows, cols) < 0 or header != _matrix_header(rows, cols):
        raise FileFormatError(f"bad matrix header: {header!r}")
    if len(payload) != 8 * rows * cols:
        raise FileFormatError(
            f"payload is {len(payload)} bytes, expected {8 * rows * cols}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def _int_list(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _manifest(params) -> bytes:
    """The manifest bytes of a parameter set, blank line included.

    svdp's one-core sides are the blocks ``u`` and ``v``; the chain scheme
    numbers its cores from the outer end of each side and records its
    factorizations and rank schedule.
    """
    try:
        structure = params.structure
    except AttributeError:
        raise FileFormatError(f"cannot serialize {type(params)!r}") from None
    spectrum = params.spectrum
    lines = [
        _PARAMS_MAGIC,
        f"scheme={params.scheme}",
        f"dout={params.d_out}",
        f"din={params.d_in}",
        f"rank={params.r}",
        f"spectrum={spectrum.mode}",
        f"lambda={spectrum.lam!r}",
    ]
    if spectrum.mode == IDENTITY:
        lines.append(f"signs={_int_list(spectrum.signs)}")
    if params.scheme == "svdp":
        names = ["u", "v"]
    else:
        lines += [f"out_factors={_int_list(structure.out_factors)}",
                  f"in_factors={_int_list(structure.in_factors)}",
                  f"rank_schedule={_int_list(structure.schedule.ranks)}"]
        names = ([f"u_core_{k + 1}" for k in range(len(params.u_layouts))]
                 + [f"v_core_{k + 1}" for k in range(len(params.v_layouts))])
    sizes = [la.params.size for la in params.layouts]
    if spectrum.mode != IDENTITY:
        names.append("sigma")
        sizes.append(spectrum.s.size)
    lines += [f"block={name} {size}" for name, size in zip(names, sizes)]
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def write_params(path, params) -> None:
    manifest = _manifest(params)
    with open(path, "wb") as fh:
        fh.write(manifest)
        fh.write(pack(params).astype("<f8", copy=False))


def read_params(path):
    """The parameter set whose :func:`write_params` bytes are the file's."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n\n") + 2
    if end < 2:
        raise FileFormatError("parameter manifest not terminated by blank line")
    manifest = raw[:end]
    try:
        lines = manifest.decode("utf-8").split("\n")[:-2]
    except UnicodeDecodeError as exc:
        raise FileFormatError("parameter manifest is not UTF-8") from exc
    if lines[0] != _PARAMS_MAGIC:
        raise FileFormatError(f"bad parameter magic: {lines[0]!r}")
    fields = dict(line.partition("=")[::2] for line in lines[1:])
    scheme = SCHEMES.get(fields.get("scheme"))
    if scheme is None:
        raise FileFormatError(f"unknown scheme {fields.get('scheme')!r}")
    try:
        d_out, d_in, r = (int(fields[key]) for key in ("dout", "din", "rank"))
        mode, lam = fields["spectrum"], float(fields["lambda"])
        signs = ([float(v) for v in fields["signs"].split(",")]
                 if mode == IDENTITY else None)
        total = sum(int(line.rpartition(" ")[2]) for line in lines
                    if line.startswith("block="))
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"incomplete manifest: {exc}") from exc
    if len(raw) - end != 8 * total:
        raise FileFormatError(
            f"payload is {len(raw) - end} bytes, expected {8 * total}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=end)  # no payload copy
    if not np.all(np.isfinite(values)):
        raise FileFormatError("parameter payload holds non-finite values")
    try:
        # The record's count is checked first, so that declared dims
        # cannot make the reader allocate beyond the file's size.
        structure = scheme.structure(d_out, d_in, r, mode)
        if total != structure.dof:
            raise FileFormatError(f"blocks hold {total} values, dims and "
                                  f"rank need {structure.dof}")
        params = scheme.unpack(structure, values,
                               init_spectrum(mode, r, signs, lam))
    except FileFormatError:
        raise
    except Exception as exc:
        raise FileFormatError(f"inconsistent parameter file: {exc}") from exc
    if _manifest(params) != manifest:
        raise FileFormatError("manifest is not the one its parameters write")
    return params
