"""Table 2: the 19 non-recursive benchmarks of [Rodríguez-Carbonell 2018].

The original collection ships C-like sources; here each benchmark is rewritten
in the paper's guarded polynomial language (Figure 5).  Where the original
uses constructs outside the grammar (equality guards, ``mod``/parity tests,
integer division by two) the rewriting follows the paper's own conventions:
equalities become conjunctions of two non-strict inequalities, parity tests
become non-deterministic branches whose two arms both preserve the desired
invariant, and halving is written as multiplication by ``0.5``.  Every such
deviation is recorded in the benchmark's ``notes`` field.

The ``paper`` field carries the row of Table 2 (n, d, |V|, |S|, runtime) so
that the harness can print paper-vs-measured columns.
"""

from __future__ import annotations

from repro.suite.base import Benchmark, PaperReference

COHENDIV_SOURCE = """
cohendiv(x, y) {
    q := 0;
    r := x;
    while r >= y do
        a := 1;
        b := y;
        while r >= 2*b do
            a := 2*a;
            b := 2*b
        od;
        r := r - b;
        q := q + a
    od;
    return q
}
"""

DIVBIN_SOURCE = """
divbin(x, y) {
    b := y;
    r := x;
    q := 0;
    while r >= b do
        b := 2*b
    od;
    while b > y do
        q := 2*q;
        b := 0.5*b;
        if r >= b then
            r := r - b;
            q := q + 1
        else
            skip
        fi
    od;
    return q
}
"""

HARD_SOURCE = """
hard(A, B) {
    r := A;
    d := B;
    p := 1;
    q := 0;
    while r >= d do
        d := 2*d;
        p := 2*p
    od;
    while p > 1 do
        d := 0.5*d;
        p := 0.5*p;
        if r >= d then
            r := r - d;
            q := q + p
        else
            skip
        fi
    od;
    return q
}
"""

MANNADIV_SOURCE = """
mannadiv(x1, x2) {
    y1 := 0;
    y2 := 0;
    y3 := x1;
    while y3 >= 1 do
        if y2 + 1 >= x2 and y2 + 1 <= x2 then
            y1 := y1 + 1;
            y2 := 0;
            y3 := y3 - 1
        else
            y2 := y2 + 1;
            y3 := y3 - 1
        fi
    od;
    return y1
}
"""

WENSLEY_SOURCE = """
wensley(P, Q, E) {
    a := 0;
    b := 0.5*Q;
    d := 1;
    y := 0;
    while d >= E do
        if P < a + b then
            b := 0.5*b;
            d := 0.5*d
        else
            a := a + b;
            y := y + 0.5*d;
            b := 0.5*b;
            d := 0.5*d
        fi
    od;
    return y
}
"""

SQRT_SOURCE = """
sqrt(n) {
    a := 0;
    s := 1;
    t := 1;
    while s <= n do
        a := a + 1;
        t := t + 2;
        s := s + t
    od;
    return a
}
"""

DIJKSTRA_SOURCE = """
dijkstra(n) {
    p := 0;
    q := 1;
    r := n;
    h := 0;
    while q <= n do
        q := 4*q
    od;
    while q > 1 do
        q := 0.25*q;
        h := p + q;
        p := 0.5*p;
        if r >= h then
            p := p + q;
            r := r - h
        else
            skip
        fi
    od;
    return p
}
"""

Z3SQRT_SOURCE = """
z3sqrt(x) {
    a := 0;
    s := 1;
    t := 1;
    h := 0;
    e := x;
    while s <= x do
        a := a + 1;
        t := t + 2;
        s := s + t;
        h := a*a;
        e := x - h
    od;
    return a
}
"""

FREIRE1_SOURCE = """
freire1(a) {
    x := 0.5*a;
    r := 0;
    while x > r do
        x := x - r;
        r := r + 1
    od;
    return r
}
"""

FREIRE2_SOURCE = """
freire2(a) {
    x := a;
    r := 1;
    s := 3.25;
    while x - s > 0 do
        x := x - s;
        s := s + 6*r + 3;
        r := r + 1
    od;
    return r
}
"""

EUCLIDEX1_SOURCE = """
euclidex1(x, y) {
    a := x;
    b := y;
    p := 1;
    q := 0;
    r := 0;
    s := 1;
    c := 0;
    k := 0;
    v := 0;
    while a > b or b > a do
        c := c + 1;
        if a > b then
            a := a - b;
            p := p - q;
            r := r - s;
            k := k + 1
        else
            b := b - a;
            q := q - p;
            s := s - r;
            v := v + 1
        fi
    od;
    return a
}
"""

EUCLIDEX2_SOURCE = """
euclidex2(x, y) {
    a := x;
    b := y;
    p := 1;
    q := 0;
    r := 0;
    s := 1;
    while a > b or b > a do
        if a > b then
            a := a - b;
            p := p - q;
            r := r - s
        else
            b := b - a;
            q := q - p;
            s := s - r
        fi
    od;
    return a
}
"""

EUCLIDEX3_SOURCE = """
euclidex3(x, y) {
    a := x;
    b := y;
    p := 1;
    q := 0;
    r := 0;
    s := 1;
    c := 0;
    k := 0;
    v := 0;
    d := 0;
    e := 0;
    while a > b or b > a do
        c := c + 1;
        d := p*x;
        e := s*y;
        if a > b then
            a := a - b;
            p := p - q;
            r := r - s;
            k := k + 1
        else
            b := b - a;
            q := q - p;
            s := s - r;
            v := v + 1
        fi
    od;
    return a
}
"""

LCM1_SOURCE = """
lcm1(x, y) {
    a := x;
    b := y;
    u := y;
    v := 0;
    while a > b or b > a do
        while a > b do
            a := a - b;
            v := v + u
        od;
        while b > a do
            b := b - a;
            u := u + v
        od
    od;
    return a
}
"""

LCM2_SOURCE = """
lcm2(x, y) {
    a := x;
    b := y;
    u := y;
    v := 0;
    while a > b or b > a do
        if a > b then
            a := a - b;
            v := v + u
        else
            b := b - a;
            u := u + v
        fi
    od;
    return a
}
"""

PRODBIN_SOURCE = """
prodbin(a, b) {
    x := a;
    y := b;
    z := 0;
    while y >= 1 do
        if * then
            z := z + x;
            y := 0.5*y - 0.5;
            x := 2*x
        else
            y := 0.5*y;
            x := 2*x
        fi
    od;
    return z
}
"""

PROD4BR_SOURCE = """
prod4br(x, y) {
    a := x;
    b := y;
    p := 1;
    q := 0;
    while a >= 1 and b >= 1 do
        if * then
            if * then
                a := a - 1;
                q := q + b*p
            else
                b := b - 1;
                q := q + a*p
            fi
        else
            if * then
                a := 0.5*a;
                p := 2*p
            else
                b := 0.5*b;
                p := 2*p
            fi
        fi
    od;
    return q
}
"""

COHENCU_SOURCE = """
cohencu(n) {
    a := 0;
    x := 0;
    y := 1;
    z := 6;
    while a <= n do
        x := x + y;
        y := y + z;
        z := z + 6;
        a := a + 1
    od;
    return x
}
"""

PETTER_SOURCE = """
petter(n) {
    x := 0;
    i := 0;
    while i <= n do
        x := x + i;
        i := i + 1
    od;
    return x
}
"""


NONRECURSIVE_BENCHMARKS = [
    Benchmark(
        name="cohendiv",
        category="nonrecursive",
        description="Cohen's integer division: quotient/remainder by repeated doubling.",
        source=COHENDIV_SOURCE,
        precondition={"cohendiv": {1: "x >= 0 and y >= 1"}},
        degree=1,
        conjuncts=1,
        upsilon=1,
        paper=PaperReference(conjuncts=1, degree=1, variables=6, system_size=622, runtime_seconds=15.236),
        notes="Desired invariant of the collection: x = q*y + r and b = y*a inside the inner loop.",
    ),
    Benchmark(
        name="divbin",
        category="nonrecursive",
        description="Binary division: divide by scaling the divisor up and halving it back down.",
        source=DIVBIN_SOURCE,
        precondition={"divbin": {1: "x >= 0 and y >= 1"}},
        degree=1,
        conjuncts=1,
        upsilon=1,
        paper=PaperReference(conjuncts=1, degree=1, variables=5, system_size=738, runtime_seconds=5.399),
        notes="Loop exit test b != y rewritten as b > y (b stays >= y); halving written as 0.5*b.",
    ),
    Benchmark(
        name="hard",
        category="nonrecursive",
        description="Hardware-style division with explicit power-of-two tracking.",
        source=HARD_SOURCE,
        precondition={"hard": {1: "A >= 0 and B >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=6, system_size=8324, runtime_seconds=27.952),
        notes="Desired invariant: A = q*B + r and d = B*p.",
    ),
    Benchmark(
        name="mannadiv",
        category="nonrecursive",
        description="Manna's integer division by repeated decrement.",
        source=MANNADIV_SOURCE,
        precondition={"mannadiv": {1: "x1 >= 0 and x2 >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=5, system_size=2561, runtime_seconds=18.222),
        notes="Equality guard y2 + 1 = x2 rewritten as the conjunction of two non-strict inequalities.",
    ),
    Benchmark(
        name="wensley",
        category="nonrecursive",
        description="Wensley's real division by interval bisection.",
        source=WENSLEY_SOURCE,
        precondition={"wensley": {1: "P >= 0 and Q - P >= 0 and E >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=7, system_size=9422, runtime_seconds=20.051),
        notes="Desired invariant: a = 2*b*y / d relationships, i.e. a*d = 2*b*y and b*... (degree 2).",
    ),
    Benchmark(
        name="sqrt",
        category="nonrecursive",
        description="Integer square root by odd-number summation.",
        source=SQRT_SOURCE,
        precondition={"sqrt": {1: "n >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=4, system_size=2030, runtime_seconds=5.808),
        notes="Desired invariant: t = 2*a + 1 and s = (a + 1)^2.",
    ),
    Benchmark(
        name="dijkstra",
        category="nonrecursive",
        description="Dijkstra's integer square root by scaling powers of four.",
        source=DIJKSTRA_SOURCE,
        precondition={"dijkstra": {1: "n >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=5, system_size=5072, runtime_seconds=12.776),
        notes="Loop exit test q != 1 rewritten as q > 1; quartering/halving written with 0.25 and 0.5.",
    ),
    Benchmark(
        name="z3sqrt",
        category="nonrecursive",
        description="Integer square root with an explicit error term (reconstructed source).",
        source=Z3SQRT_SOURCE,
        precondition={"z3sqrt": {1: "x >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=6, system_size=4692, runtime_seconds=12.944),
        notes=(
            "The original listing of the collection was not available offline; this is an integer "
            "square-root routine with the same variable count (6) and polynomial structure."
        ),
    ),
    Benchmark(
        name="freire1",
        category="nonrecursive",
        description="Freire's real square-root iteration.",
        source=FREIRE1_SOURCE,
        precondition={"freire1": {1: "a >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=3, system_size=1210, runtime_seconds=26.474),
        notes="Desired invariant: a = 2*x + r^2 - r.",
    ),
    Benchmark(
        name="freire2",
        category="nonrecursive",
        description="Freire's real cube-root iteration.",
        source=FREIRE2_SOURCE,
        precondition={"freire2": {1: "a >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=4, system_size=1016, runtime_seconds=10.670),
        notes="Desired invariant relates a, x, r and s through a cubic identity; degree-2 templates follow the paper.",
    ),
    Benchmark(
        name="euclidex1",
        category="nonrecursive",
        description="Extended Euclid with iteration counters (11 program variables).",
        source=EUCLIDEX1_SOURCE,
        precondition={"euclidex1": {1: "x >= 1 and y >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=11, system_size=11191, runtime_seconds=97.493),
        notes="Desired invariant: a = p*x + r*y and b = q*x + s*y (Bezout bookkeeping).",
    ),
    Benchmark(
        name="euclidex2",
        category="nonrecursive",
        description="Extended Euclid's algorithm maintaining Bezout coefficients.",
        source=EUCLIDEX2_SOURCE,
        precondition={"euclidex2": {1: "x >= 1 and y >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=8, system_size=11156, runtime_seconds=39.323),
        notes="Loop guard a != b rewritten as (a > b) or (b > a).",
    ),
    Benchmark(
        name="euclidex3",
        category="nonrecursive",
        description="Extended Euclid with additional product-tracking variables (13 program variables).",
        source=EUCLIDEX3_SOURCE,
        precondition={"euclidex3": {1: "x >= 1 and y >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=13, system_size=36228, runtime_seconds=203.110),
        notes="Largest Table-2 instance; exercises the quadratic blow-up of the reduction.",
    ),
    Benchmark(
        name="lcm1",
        category="nonrecursive",
        description="Least common multiple via nested subtractive loops.",
        source=LCM1_SOURCE,
        precondition={"lcm1": {1: "x >= 1 and y >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=6, system_size=6589, runtime_seconds=17.851),
        notes="Desired invariant: a*u + b*v = x*y.",
    ),
    Benchmark(
        name="lcm2",
        category="nonrecursive",
        description="Least common multiple, flat (un-nested) variant.",
        source=LCM2_SOURCE,
        precondition={"lcm2": {1: "x >= 1 and y >= 1"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=6, system_size=6176, runtime_seconds=18.714),
        notes="Desired invariant: a*u + b*v = x*y.",
    ),
    Benchmark(
        name="prodbin",
        category="nonrecursive",
        description="Binary (Russian-peasant) multiplication.",
        source=PRODBIN_SOURCE,
        precondition={"prodbin": {1: "a >= 0 and b >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=5, system_size=5038, runtime_seconds=12.125),
        notes=(
            "Parity test on y replaced by a non-deterministic branch; both arms preserve the "
            "desired invariant z + x*y = a*b."
        ),
    ),
    Benchmark(
        name="prod4br",
        category="nonrecursive",
        description="Product computation with four non-deterministic branches.",
        source=PROD4BR_SOURCE,
        precondition={"prod4br": {1: "x >= 0 and y >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=6, system_size=10522, runtime_seconds=43.205),
        notes="Parity tests replaced by non-determinism; desired invariant q + a*b*p = x*y.",
    ),
    Benchmark(
        name="cohencu",
        category="nonrecursive",
        description="Cohen's cube: computes n^3 with finite differences.",
        source=COHENCU_SOURCE,
        precondition={"cohencu": {1: "n >= 0"}},
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=5, system_size=3424, runtime_seconds=11.778),
        notes="Desired invariants: z = 6*a + 6, y = 3*a^2 + 3*a + 1 (degree-2 part of the cube identity).",
    ),
    Benchmark(
        name="petter",
        category="nonrecursive",
        description="Petter's running-sum loop (x accumulates 0 + 1 + ... + i).",
        source=PETTER_SOURCE,
        precondition={"petter": {1: "n >= 0"}},
        target_function="petter",
        target_label=7,
        target="0.5*n_init^2 + 0.5*n_init + 1 - ret_petter",
        degree=2,
        conjuncts=1,
        upsilon=2,
        paper=PaperReference(conjuncts=1, degree=2, variables=3, system_size=1080, runtime_seconds=20.390),
        notes="Desired invariant: 2*x = i^2 - i; the strict target bounds the returned sum.",
    ),
]
