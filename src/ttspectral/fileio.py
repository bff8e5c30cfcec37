"""Matrix and parameter-set persistence.

Both formats put a human-readable UTF-8 header in front of raw
little-endian float64 payloads, so headers diff cleanly while payloads
round-trip bit for bit.

Matrix files are one header line::

    STTPMAT v1 rows=<R> cols=<C> dtype=f64 order=row-major\n

followed by exactly ``8 * R * C`` payload bytes in row-major order.

Parameter files open with a manifest section terminated by a blank line:
scheme, dims, rank, spectrum mode, regularizer weight, the factorizations
and rank schedule (chain scheme only), the sign vector (identity spectrum
only; signs are not free parameters and live in the manifest), and one
``block=<name> <count>`` line per payload block.  The blocks' concatenated
float64 payloads follow in manifest order, and their counts add up to the
scheme's free-parameter count exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import FileFormatError
from .schemes import SCHEMES
from .spectral import SpectrumParams
from .spectrum_modes import IDENTITY, SPECTRUM_MODES
from .sttp import core_specs  # noqa: F401  (perfbench/spans.py patches it)

__all__ = ["write_matrix", "read_matrix", "write_params", "read_params"]

_MATRIX_MAGIC = "STTPMAT v1"
_PARAMS_MAGIC = "STTPPARAMS v1"


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise FileFormatError("matrix files hold 2-D arrays")
    rows, cols = m.shape
    header = f"{_MATRIX_MAGIC} rows={rows} cols={cols} dtype=f64 order=row-major\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(np.ascontiguousarray(m).astype("<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        text = header.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise FileFormatError("matrix header is not UTF-8") from exc
    parts = text.split(" ")
    if parts[:2] != _MATRIX_MAGIC.split(" ") or len(parts) != 6:
        raise FileFormatError(f"bad matrix header: {text!r}")
    try:
        fields = dict(p.split("=", 1) for p in parts[2:])
        rows, cols = int(fields["rows"]), int(fields["cols"])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"bad matrix header: {text!r}") from exc
    if fields.get("dtype") != "f64" or fields.get("order") != "row-major":
        raise FileFormatError(f"unsupported matrix encoding: {text!r}")
    if rows < 0 or cols < 0:
        raise FileFormatError("matrix dims must be non-negative")
    if len(payload) != 8 * rows * cols:
        raise FileFormatError(
            f"payload is {len(payload)} bytes, expected {8 * rows * cols}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def _int_list(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _chain_manifest(view) -> tuple[list[str], dict[str, str]]:
    """Block names of the layouts in pack order, and the structure fields.

    svdp's one-core sides are the blocks ``u`` and ``v`` and need no
    structure fields; the chain scheme numbers its cores from the outer end
    of each side and records its factorizations and rank schedule.
    """
    if view.scheme == "svdp":
        return ["u", "v"], {}
    names = ([f"u_core_{k + 1}" for k in range(len(view.u_layouts))]
             + [f"v_core_{k + 1}" for k in range(len(view.v_layouts))])
    return names, {"out_factors": _int_list(view.out_factors),
                   "in_factors": _int_list(view.in_factors),
                   "rank_schedule": _int_list(view.ranks)}


def _manifest(params) -> tuple[bytes, list[tuple[str, np.ndarray]]]:
    """The manifest bytes of a parameter set, blank line included, and its
    blocks ``(name, values)`` in payload order."""
    try:
        view = params.chain
    except AttributeError:
        raise FileFormatError(f"cannot serialize {type(params)!r}") from None
    lines = [
        _PARAMS_MAGIC,
        f"scheme={view.scheme}",
        f"dout={params.d_out}",
        f"din={params.d_in}",
        f"rank={params.r}",
        f"spectrum={params.spectrum.mode}",
        f"lambda={params.spectrum.lam!r}",
    ]
    if params.spectrum.mode == IDENTITY:
        lines.append(f"signs={_int_list(params.spectrum.signs)}")
    names, structure = _chain_manifest(view)
    lines.extend(f"{key}={value}" for key, value in structure.items())
    blocks = [(name, la.params) for name, la in zip(names, view.layouts)]
    if params.spectrum.mode != IDENTITY:
        blocks.append(("sigma", params.spectrum.s))
    lines.extend(f"block={name} {vals.size}" for name, vals in blocks)
    return ("\n".join(lines) + "\n\n").encode("utf-8"), blocks


def write_params(path, params) -> None:
    manifest, blocks = _manifest(params)
    with open(path, "wb") as fh:
        fh.write(manifest)
        for _, vals in blocks:
            fh.write(np.ascontiguousarray(vals).astype("<f8").tobytes())


def _parse_manifest(raw: bytes):
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise FileFormatError("parameter manifest not terminated by blank line")
    try:
        text = raw[:sep].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError("parameter manifest is not UTF-8") from exc
    lines = text.split("\n")
    if lines[0] != _PARAMS_MAGIC:
        raise FileFormatError(f"bad parameter magic: {lines[0]!r}")
    fields: dict[str, str] = {}
    blocks: list[tuple[str, int]] = []
    for line in lines[1:]:
        if "=" not in line:
            raise FileFormatError(f"bad manifest line: {line!r}")
        key, value = line.split("=", 1)
        if key == "block":
            try:
                name, count = value.rsplit(" ", 1)
                blocks.append((name, int(count)))
            except ValueError as exc:
                raise FileFormatError(f"bad block line: {line!r}") from exc
        else:
            if key in fields:
                raise FileFormatError(f"duplicate manifest field {key!r}")
            fields[key] = value
    return fields, blocks, raw[sep + 2:]


def read_params(path):
    """Reconstruct a parameter set whose manifest is, byte for byte, the one
    :func:`write_params` writes for it, so a rewrite reproduces the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields, blocks, payload = _parse_manifest(raw)
    try:
        scheme = fields["scheme"]
        d_out, d_in = int(fields["dout"]), int(fields["din"])
        r = int(fields["rank"])
        mode = fields["spectrum"]
        lam = float(fields["lambda"])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"incomplete manifest: {exc}") from exc
    if mode not in SPECTRUM_MODES:
        raise FileFormatError(f"unknown spectrum mode {mode!r}")
    if scheme not in SCHEMES:
        raise FileFormatError(f"unknown scheme {scheme!r}")
    total = sum(count for _, count in blocks)
    if len(payload) != 8 * total:
        raise FileFormatError(
            f"payload is {len(payload)} bytes, expected {8 * total}"
        )
    values = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(values)):
        raise FileFormatError("parameter payload holds non-finite values")
    chunks: dict[str, np.ndarray] = {}
    pos = 0
    for name, count in blocks:
        if name in chunks:
            raise FileFormatError(f"duplicate block {name!r}")
        chunks[name] = values[pos: pos + count].copy()
        pos += count

    def take(name):  # the layouts and the spectrum check the block's size
        if name not in chunks:
            raise FileFormatError(f"missing block {name!r}")
        return chunks.pop(name)

    try:
        # The closed-form count goes first, so that declared dims cannot
        # make the reader allocate beyond the file's size.
        expected = SCHEMES[scheme].dof(d_out, d_in, r, mode)
        if total != expected:
            raise FileFormatError(
                f"blocks hold {total} values, dims and rank need {expected}")
        if mode != IDENTITY:
            spectrum = SpectrumParams(mode, r, take("sigma"), None, lam)
        elif "signs" not in fields:
            raise FileFormatError("identity spectrum needs a signs field")
        else:
            signs = np.array([float(v) for v in fields["signs"].split(",")])
            spectrum = SpectrumParams(IDENTITY, r, None, signs, lam)
        view = SCHEMES[scheme].template(d_out, d_in, r, mode).chain
        names, structure = _chain_manifest(view)
        for key, value in structure.items():
            if fields.get(key) != value:
                raise FileFormatError(f"{key} does not match dims and rank")
        params = view.rebuild([la.with_params(take(name))
                               for name, la in zip(names, view.layouts)],
                              spectrum)
    except FileFormatError:
        raise
    except Exception as exc:
        raise FileFormatError(f"inconsistent parameter file: {exc}") from exc
    if chunks:
        raise FileFormatError(f"unused blocks: {sorted(chunks)}")
    if _manifest(params)[0] != raw[: len(raw) - len(payload)]:
        raise FileFormatError("manifest is not the one its parameters write")
    return params
