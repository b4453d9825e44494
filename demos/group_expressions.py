"""The group expression language.

Leaves name standard pro-p groups; '*' is the free pro-p product and 'x'
the direct product. 'x' binds tighter. Every expression evaluates to the
Hilbert series of its graded group algebra over F_p.
"""
from zassenhaus.groupspec import closed_form, hp_series, parse_group_spec, to_text
from zassenhaus.series import expand_rational, format_poly

examples = [
    ("free(2)", 2),
    ("cyclic(2) * cyclic(2)", 2),
    ("cyclic(3) * cyclic(3) * cyclic(3)", 3),
    ("cyclic(2) * free(2)", 2),
    ("demushkin(3) * demushkin(4) * free(1)", 3),
    ("zp(2) x cyclic(2)", 2),
    ("superpyth(2)", 2),
]

for text, p in examples:
    spec = parse_group_spec(text)
    # a_0..a_8 as a tuple of int
    series = hp_series(spec, p, 8)
    print(f"{to_text(spec):42s} p={p}  {list(series)}")

print()
print("Closed forms where a finite rational expression exists:")
for text, p in examples:
    spec = parse_group_spec(text)
    form = closed_form(spec, p)
    if isinstance(form, str):
        shown = form
    else:
        shown = f"({format_poly(form.num)}) / ({format_poly(form.den)})"
        # the closed form must reproduce the truncated series exactly
        assert expand_rational(form, 8) == hp_series(spec, p, 8)
    print(f"  {text:40s} {shown}")

# precedence: 'x' before '*', parentheses override
a = parse_group_spec("cyclic(2) * free(1) x zp(1)")
b = parse_group_spec("(cyclic(2) * free(1)) x zp(1)")
print()
print("precedence:", to_text(a), " vs ", to_text(b))
