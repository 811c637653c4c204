"""Static SVG diagram of the piece/gap structure of a tail construction,
in the style of a defining-sequence figure: one horizontal band per piece,
with successive rows showing the first removed gaps.
"""

from __future__ import annotations

from fractions import Fraction

from .constructions import _tail
from .errors import InvalidInput
from .numerics import DEFAULT_CONFIG, PrecisionConfig

__all__ = ["svg_gaps"]

_W, _H = 960, 320
_MARGIN = 50
_ROW_Y = (80, 150, 220)


def _seg(x1: float, x2: float, y: int, width: float = 3.0) -> str:
    return (f'<line x1="{x1:.2f}" y1="{y}" x2="{x2:.2f}" y2="{y}" '
            f'stroke="black" stroke-width="{width}"/>')


def _label(x: float, y: int, text: str) -> str:
    return (f'<text x="{x:.2f}" y="{y}" font-size="13" '
            f'text-anchor="middle" font-family="monospace">{text}</text>')


def svg_gaps(x: Fraction, ell: int, k_max: int, q_max: int,
             cfg: PrecisionConfig = DEFAULT_CONFIG) -> str:
    """Pieces ell..ell+k_max-1 and their first 2^(q_max+1)-1 gaps, as SVG."""
    if q_max not in (0, 1):
        raise InvalidInput(f"q_max must be 0 or 1, got {q_max}")
    x = Fraction(x)
    tail = _tail(x, ell, k_max, q_max, cfg)
    n_first = len(tail[0][1])
    lo = float(tail[0][0].alpha.mid_fraction())
    hi = 0.5
    pad = (hi - lo) * 0.04 + 1e-9

    def px(v: float) -> float:
        return _MARGIN + (v - lo + pad) / (hi - lo + 2 * pad) * (_W - 2 * _MARGIN)

    rows: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _label(_W / 2, 30, f"pieces of the tail construction for x = {x} "
                           f"(ell = {ell})"),
    ]
    for piece, records in tail:
        a = float(piece.alpha.mid_fraction())
        b = float(piece.beta.mid_fraction())
        rows.append(_seg(px(a), px(b), _ROW_Y[0]))
        rows.append(_label(px(a), _ROW_Y[0] - 10, f"a{piece.k}"))
        rows.append(_label(px(b), _ROW_Y[0] - 10, f"b{piece.k}"))
        cuts = [(float(r.gap[0].mid_fraction()), float(r.gap[1].mid_fraction()))
                for r in records]
        for row, upto in ((_ROW_Y[1], 1), (_ROW_Y[2], n_first)):
            segments = [(a, b)]
            for gl, gr in cuts[:upto]:
                nxt = []
                for s0, s1 in segments:
                    if s0 < gl < gr < s1:
                        nxt += [(s0, gl), (gr, s1)]
                    else:
                        nxt.append((s0, s1))
                segments = nxt
            for s0, s1 in segments:
                rows.append(_seg(px(s0), px(s1), row, 2.0))
    rows.append(_seg(px(hi) - 26, px(hi) + 2, _ROW_Y[0], 1.0))
    rows.append(_label(px(hi), _ROW_Y[0] - 10, "1/2"))
    rows.append(_label(_W / 2, _H - 18,
                       "rows: piece hulls; after first gap; after first "
                       f"{n_first} gaps"))
    rows.append("</svg>")
    return "\n".join(rows)
