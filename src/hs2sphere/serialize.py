"""Deterministic text serialization helpers.

All numeric output goes through a fixed 17-significant-digit decimal format,
which round-trips IEEE double precision bit-exactly and makes repeated runs
byte-identical.  JSON is emitted with sorted keys and no locale dependence.
"""

import math


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (bit-exact round trip),
    NaN and the infinities as ``nan``, ``inf`` and ``-inf``."""
    return format(float(x), ".17g")


def _json_scalar(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return fmt_float(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(value)!r}")


def json_dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data deterministically.

    Dict keys are sorted, floats use :func:`fmt_float`, non-finite floats
    become null.  ``indent`` is the current indentation level (two spaces
    per level).
    """
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            rendered = json_dumps(obj[key], indent + 1)
            items.append(f'{pad_in}"{key}": {rendered}')
        inner = ",\n".join(items)
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if scalars:
            return "[" + ", ".join(_json_scalar(v) for v in seq) + "]"
        items = [pad_in + json_dumps(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


def json_dump(obj, path) -> None:
    """Write :func:`json_dumps` output to ``path`` with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_dumps(obj))
        fh.write("\n")


def write_trajectory_csv(path, times, x, u, rho) -> None:
    """Long-format CSV with columns t, x, u, rho: row j of state i holds

    times[i], x[j], u[i][j] and rho[i][j] in :func:`fmt_float`'s .17g format.
    Each state is one ``%`` operation on a bytes template: its time, then
    ``b",%s,%.17g,%.17g\\n"`` once per point.  Bytes formatting renders a
    float as str formatting does, and the file takes the bytes unencoded.
    """
    xs = [fmt_float(v).encode() for v in x]
    fields = [None] * (3 * len(xs))
    fields[::3] = xs
    with open(path, "wb") as fh:
        fh.write(b"t,x,u,rho\n")
        for t, u_row, rho_row in zip(times, u, rho):
            fields[1::3], fields[2::3] = u_row.tolist(), rho_row.tolist()
            template = (fmt_float(float(t)) + ",%s,%.17g,%.17g\n").encode() * len(xs)
            fh.write(template % tuple(fields))
