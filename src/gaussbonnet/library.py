"""Built-in manifolds, vector fields, sections and bundles.

Expected Euler characteristics are topology metadata, never computed:
sphere2: 2, torus2: 0, bumpy_sphere: 2, sphere4: 2, s2xs2: 4, torus4: 0,
cp2: 3.  Each entry also carries the quick-tier resolution and tolerance
used by the CLI selftest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Atlas, Chart

__all__ = ["Manifold", "MANIFOLDS", "build_manifold", "stereo_pair_atlas",
           "field_registry", "build_field", "manifold_names", "field_names"]

PI = math.pi


@dataclass(frozen=True)
class Manifold:
    name: str
    atlas: Atlas
    expected_chi: int | None  # topology metadata; None: nothing declared
    default_res: int = 64
    default_tol: float = 1e-6
    extrapolate: bool = False
    quick_res: int = 32
    quick_tol: float = 1e-3


def sphere2(radius=1.0):
    chart = Chart.from_strings(
        "polar", 2, [(0.0, PI), (0.0, 2 * PI)], [False, True],
        {(0, 0): "r^2", (1, 1): "r^2*sin(x1)^2"}, params={"r": radius})
    return Manifold("sphere2", Atlas((chart,)), 2,
                    default_res=128, default_tol=1e-6,
                    quick_res=48, quick_tol=1e-5)


def torus2():
    chart = Chart.from_strings("flat", 2, [(0.0, 1.0), (0.0, 1.0)], [True, True],
                               {(0, 0): "1", (1, 1): "1"})
    return Manifold("torus2", Atlas((chart,)), 0,
                    default_res=8, default_tol=1e-12,
                    quick_res=4, quick_tol=1e-12)


def bumpy_sphere(eps=0.3):
    factor = f"exp(2*eps*cos(x1))"
    chart = Chart.from_strings(
        "polar", 2, [(0.0, PI), (0.0, 2 * PI)], [False, True],
        {(0, 0): factor, (1, 1): f"{factor}*sin(x1)^2"}, params={"eps": eps})
    return Manifold("bumpy_sphere", Atlas((chart,)), 2,
                    default_res=128, default_tol=1e-4,
                    quick_res=64, quick_tol=1e-3)


def sphere4(radius=1.0):
    g = {(0, 0): "r^2",
         (1, 1): "r^2*sin(x1)^2",
         (2, 2): "r^2*sin(x1)^2*sin(x2)^2",
         (3, 3): "r^2*sin(x1)^2*sin(x2)^2*sin(x3)^2"}
    chart = Chart.from_strings(
        "polar", 4, [(0.0, PI)] * 3 + [(0.0, 2 * PI)],
        [False, False, False, True], g, params={"r": radius})
    return Manifold("sphere4", Atlas((chart,)), 2,
                    default_res=32, default_tol=1e-3, extrapolate=True,
                    quick_res=12, quick_tol=1e-3)


def s2xs2():
    g = {(0, 0): "1", (1, 1): "sin(x1)^2",
         (2, 2): "1", (3, 3): "sin(x3)^2"}
    chart = Chart.from_strings(
        "product", 4, [(0.0, PI), (0.0, 2 * PI), (0.0, PI), (0.0, 2 * PI)],
        [False, True, False, True], g)
    return Manifold("s2xs2", Atlas((chart,)), 4,
                    default_res=24, default_tol=1e-3, extrapolate=True,
                    quick_res=10, quick_tol=1e-3)


def torus4():
    chart = Chart.from_strings("flat", 4, [(0.0, 1.0)] * 4, [True] * 4,
                               {(i, i): "1" for i in range(4)})
    return Manifold("torus4", Atlas((chart,)), 0,
                    default_res=4, default_tol=1e-12,
                    quick_res=3, quick_tol=1e-12)


def sphere3(radius=1.0):
    """Round 3-sphere; odd-dimensional, so curvature integrals are refused."""
    g = {(0, 0): "r^2",
         (1, 1): "r^2*sin(x1)^2",
         (2, 2): "r^2*sin(x1)^2*sin(x2)^2"}
    chart = Chart.from_strings(
        "polar", 3, [(0.0, PI), (0.0, PI), (0.0, 2 * PI)],
        [False, False, True], g, params={"r": radius})
    return Manifold("sphere3", Atlas((chart,)), 0,
                    default_res=24, default_tol=1e-6,
                    quick_res=12, quick_tol=1e-6)


def cp2():
    """Fubini-Study metric in the affine chart, radial axis mapped by rho = tan(u).

    Coordinates (u, a, b, c) with z1 = tan(u) cos(a) e^{ib},
    z2 = tan(u) sin(a) e^{ic}; the induced metric is

        du^2 + sin^2 u [da^2 + cos^2 a db^2 + sin^2 a dc^2]
             - sin^4 u (cos^2 a db + sin^2 a dc)^2

    (total volume pi^2 / 2).  The improper affine integral becomes proper
    on the finite (u, a) box; the missing locus has measure zero.
    """
    s2u = "sin(x1)^2"
    g = {(0, 0): "1",
         (1, 1): s2u,
         (2, 2): f"{s2u}*cos(x2)^2*(1 - {s2u}*cos(x2)^2)",
         (3, 3): f"{s2u}*sin(x2)^2*(1 - {s2u}*sin(x2)^2)",
         (2, 3): f"-sin(x1)^4*cos(x2)^2*sin(x2)^2"}
    chart = Chart.from_strings(
        "affine", 4, [(0.0, PI / 2), (0.0, PI / 2), (0.0, 2 * PI), (0.0, 2 * PI)],
        [False, False, True, True], g)
    return Manifold("cp2", Atlas((chart,)), 3,
                    default_res=20, default_tol=1e-2, extrapolate=True,
                    quick_res=10, quick_tol=1e-2)


# --------------------------------------------------------------------------
# Two-chart stereographic sphere with analytic weights: the home of fields,
# sections and plane bundles.
# --------------------------------------------------------------------------

def stereo_pair_atlas(sharpness=6):
    """Unit sphere as north/south stereographic disks with analytic weights.

    The partition of unity is rho(r) = 1 / (1 + r^{2s}); because the
    transition inverts the radius, the same expression in each chart's own
    coordinates sums to one exactly.  Each chart is the box |x1|, |x2| <= 3;
    the tail mass outside it is below 4 pi / 3^{2s+2}.  A sharpness s <= 0
    raises ValueError: rho then no longer decays inside the box.
    """
    if sharpness <= 0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    conf = "4/(1+x1^2+x2^2)^2"
    weight = f"1/(1+(x1^2+x2^2)^{sharpness})"
    mk = lambda name: Chart.from_strings(
        name, 2, [(-3.0, 3.0), (-3.0, 3.0)], [False, False],
        {(0, 0): conf, (1, 1): conf}, weight=weight)
    flip = ("x1/(x1^2+x2^2)", "-x2/(x1^2+x2^2)")  # w~ = 1/w, an involution
    return Atlas((mk("north"), mk("south")),
                 identifications=(("north", "south", flip, flip),))


MANIFOLDS = {
    "sphere2": sphere2,
    "torus2": torus2,
    "bumpy_sphere": bumpy_sphere,
    "sphere3": sphere3,
    "sphere4": sphere4,
    "s2xs2": s2xs2,
    "torus4": torus4,
    "cp2": cp2,
}


def manifold_names():
    return sorted(MANIFOLDS)


def build_manifold(name, **kwargs):
    try:
        factory = MANIFOLDS[name]
    except KeyError:
        raise KeyError(f"unknown manifold {name!r}; have {manifold_names()}")
    return factory(**kwargs)


# --------------------------------------------------------------------------
# Built-in fields and sections on the stereographic sphere / flat torus
# --------------------------------------------------------------------------

def _morse_components():
    """Round-metric gradient of f = X^2 + Z (2 maxima, 1 saddle, 1 minimum).

    In each stereographic chart f is (2x/(1+r^2))^2 +- (1-r^2)/(1+r^2) and
    grad f = ((1+r^2)^2 / 4) (df/dx, df/dy).
    """
    r2 = "(x1^2+x2^2)"
    scale = f"((1+{r2})^2/4)"
    f_n = f"(4*x1^2/(1+{r2})^2 + (1-{r2})/(1+{r2}))"
    f_s = f"(4*x1^2/(1+{r2})^2 + ({r2}-1)/(1+{r2}))"
    # hand-differentiated: d/dx [4x^2/(1+r^2)^2] = 8x/(1+r^2)^2 - 16x^3/(1+r^2)^3 etc.
    def grad(fz_sign):
        dz = f"({fz_sign}*(-4*x1)/(1+{r2})^2)"   # d/dx of +-(1-r^2)/(1+r^2)
        dz_y = f"({fz_sign}*(-4*x2)/(1+{r2})^2)"
        dfx = f"(8*x1/(1+{r2})^2 - 16*x1^3/(1+{r2})^3 + {dz})"
        dfy = f"(-16*x1^2*x2/(1+{r2})^3 + {dz_y})"
        return (f"{scale}*{dfx}", f"{scale}*{dfy}")
    return {"north": grad("1"), "south": grad("-1")}


def field_registry():
    """Built-in fields and sections; values are factory callables."""
    from .bundles import make_plane_bundle
    from .index import VectorFieldSpec

    def on_sphere(name, comps):
        return lambda: VectorFieldSpec(name, comps, stereo_pair_atlas(), expected=2)

    def section_zk(k=1):
        # z^k on the north chart of the k-clutched plane bundle, constant
        # on the south chart; validated up to positive rescaling
        if k < 0:
            raise ValueError(f"z^K needs K >= 0, got {k}")
        bundle = make_plane_bundle(k)
        return VectorFieldSpec(f"section_z{k}",
                               {"north": _complex_power_components(k), "south": ("1", "0")},
                               bundle.atlas, expected=k, bundle=bundle)

    return {
        "morse": on_sphere("morse", _morse_components()),
        "rotation": on_sphere("rotation", {"north": ("-x2", "x1"), "south": ("x2", "-x1")}),
        "constant": lambda: VectorFieldSpec("constant", {"flat": ("1", "0")}, torus2().atlas,
                                            expected=0),
        "z": on_sphere("z", {"north": ("x1", "x2"), "south": ("-x1", "-x2")}),
        "z2": on_sphere("z2", {"north": ("x1^2 - x2^2", "2*x1*x2"), "south": ("-1", "0")}),
        "section_zk": section_zk}


def _complex_power_components(k):
    """(Re w^k, Im w^k) as expression strings via binomial expansion."""
    re_terms, im_terms = [], []
    for j in range(k + 1):
        coef = math.comb(k, j)
        term = f"{coef}*x1^{k - j}*x2^{j}" if k - j and j else (
            f"{coef}*x1^{k - j}" if k - j else f"{coef}*x2^{j}" if j else f"{coef}")
        if j % 4 == 0:
            re_terms.append("+" + term)
        elif j % 4 == 1:
            im_terms.append("+" + term)
        elif j % 4 == 2:
            re_terms.append("-" + term)
        else:
            im_terms.append("-" + term)
    re = "".join(re_terms).lstrip("+") or "0"
    im = "".join(im_terms).lstrip("+") or "0"
    return re, im


def field_names():
    return sorted(field_registry())


def build_field(name, **kwargs):
    registry = field_registry()
    if name.startswith("z^"):
        return registry["section_zk"](k=int(name[2:]))
    try:
        return registry[name](**kwargs)
    except KeyError:
        raise KeyError(f"unknown field {name!r}; have {field_names()}")
