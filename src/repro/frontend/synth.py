"""Synthesize device-Python source realizing a declared instruction mix.

The inverse direction of the front end, used by the property-based
round-trip test: given an :class:`InstructionMix` with integer counts,
emit a kernel whose static analysis extracts *exactly* that mix. One
statement per operation keeps the mapping trivially auditable — the
front end performs no CSE or folding of non-literal expressions, so each
emitted binary operation, intrinsic call and subscript contributes
exactly one count.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.kernelir.instructions import InstructionMix

#: One statement template per Table-1 class; each extracts exactly one
#: count of its class (and nothing else).
_TEMPLATES: dict[str, str] = {
    "int_add": "s{n} = 1 + 2",
    "int_mul": "s{n} = 3 * 5",
    "int_div": "s{n} = 7 // 2",
    "int_bw": "s{n} = 6 ^ 3",
    "float_add": "s{n} = 1.5 + 2.5",
    "float_mul": "s{n} = 1.5 * 2.5",
    "float_div": "s{n} = 1.5 / 2.5",
    "sf": "s{n} = sqrt(2.5)",
    "gl_access": "s{n} = a[gid]",
    "loc_access": "s{n} = tile[lid]",
}


def source_for_mix(mix: InstructionMix) -> str:
    """Emit kernel source whose extracted mix equals ``mix`` exactly.

    Counts must be non-negative integers (the synthesizer emits whole
    statements); fractional declared mixes have no source realization.
    """
    counts = mix.as_dict()
    for cls, value in counts.items():
        if value != int(value):
            raise ValidationError(
                f"cannot synthesize fractional count {cls}={value!r}"
            )
    lines = ["def synth_kernel(gid, lid: i32, a: global_f32):"]
    body: list[str] = []
    if counts["loc_access"]:
        body.append("tile = local(f32, 16)")
    n = 0
    for cls, template in _TEMPLATES.items():
        for _ in range(int(counts[cls])):
            body.append(template.format(n=n))
            n += 1
    if not body:
        body.append("pass")
    lines.extend(f"    {stmt}" for stmt in body)
    return "\n".join(lines) + "\n"
