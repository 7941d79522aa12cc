"""Extended workload gallery: kernels beyond the paper's evaluation set.

Six additional multi-loop kernels from the paper's motivating domains
(image processing, signal processing, scientific relaxation), each given
as loop-DSL source.  They widen the evaluation beyond the five Section-5
graphs: different loop counts, dependence mixes and algorithm outcomes.
The MLDGs are *extracted from the source* (never transcribed), so code and
graph cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from textwrap import dedent
from typing import List

from repro.depend import extract_mldg
from repro.graph.mldg import MLDG
from repro.loopir import parse_program

__all__ = ["ExtendedKernel", "extended_kernels"]


@dataclass(frozen=True)
class ExtendedKernel:
    """One extended-evaluation workload."""

    key: str
    title: str
    code: str
    expected_strategy: str  # repro.fusion.Strategy value
    domain: str

    def nest(self):
        return parse_program(self.code)

    def mldg(self) -> MLDG:
        return extract_mldg(self.nest())


def _k(key: str, title: str, domain: str, expected: str, code: str) -> ExtendedKernel:
    return ExtendedKernel(
        key=key,
        title=title,
        code=dedent(code).strip(),
        expected_strategy=expected,
        domain=domain,
    )


def extended_kernels() -> List[ExtendedKernel]:
    """The extended workload set, in a stable order."""
    return [
        _k(
            "jacobi-pair",
            "Jacobi smoother + residual (acyclic, fusion-preventing)",
            "scientific",
            "acyclic",
            """
            do i = 0, n
              doall j = 0, m        ! loop Smooth
                u[i][j] = 0.25 * (f[i][j] + f[i-1][j] + f[i-1][j-1] + f[i-2][j])
              end
              doall j = 0, m        ! loop Resid
                r[i][j] = f[i][j] - u[i][j+1] + u[i][j-1]
              end
            end
            """,
        ),
        _k(
            "separable-filter",
            "Separable filter: horizontal then vertical pass",
            "image",
            "acyclic",
            """
            do i = 0, n
              doall j = 0, m        ! loop Horiz
                h[i][j] = 0.5 * (p[i][j] + p[i][j-1]) + 0.25 * p[i][j+1]
              end
              doall j = 0, m        ! loop Vert
                v[i][j] = 0.5 * (h[i][j] + h[i-1][j]) + 0.25 * h[i-2][j+2]
              end
              doall j = 0, m        ! loop Norm
                q[i][j] = v[i][j+3] - v[i][j]
              end
            end
            """,
        ),
        _k(
            "lattice-filter",
            "Lattice filter section with feed-forward/feed-back pair",
            "dsp",
            "cyclic",
            """
            do i = 0, n
              doall j = 0, m        ! loop Fwd
                f[i][j] = x[i][j] + 0.3 * g[i-1][j+1]
              end
              doall j = 0, m        ! loop Bwd
                g[i][j] = 0.3 * f[i][j] - f[i][j-2] + 0.1 * g[i-1][j]
              end
            end
            """,
        ),
        _k(
            "multirate-cascade",
            "Multirate cascade: five stages with mixed distances",
            "dsp",
            "acyclic",
            """
            do i = 0, n
              doall j = 0, m        ! loop S1
                a[i][j] = x[i][j] + x[i-1][j+2]
              end
              doall j = 0, m        ! loop S2
                b[i][j] = a[i][j+1] - a[i][j-1]
              end
              doall j = 0, m        ! loop S3
                c[i][j] = b[i][j+4] + a[i][j]
              end
              doall j = 0, m        ! loop S4
                d[i][j] = c[i][j] - b[i-1][j-3]
              end
              doall j = 0, m        ! loop S5
                y[i][j] = d[i][j+2] + c[i-1][j]
              end
            end
            """,
        ),
        _k(
            "time-marching",
            "Time-marching scheme with predictor/corrector feedback",
            "scientific",
            "cyclic",
            """
            do i = 0, n
              doall j = 0, m        ! loop Pred
                p[i][j] = u[i-1][j] + 0.5 * (u[i-2][j+1] - u[i-3][j-1])
              end
              doall j = 0, m        ! loop Flux
                q[i][j] = p[i][j+1] - p[i][j-1]
              end
              doall j = 0, m        ! loop Corr
                u[i][j] = p[i][j] - 0.5 * q[i][j]
              end
            end
            """,
        ),
        _k(
            "anisotropic-sweep",
            "Anisotropic smoothing with in-step feedback (wavefront only)",
            "image",
            "hyperplane",
            """
            do i = 0, n
              doall j = 0, m        ! loop Grad
                d[i][j] = s[i-1][j+1] - s[i-1][j-1] + w[i-1][j+3]
              end
              doall j = 0, m        ! loop Diffuse
                s[i][j] = d[i][j+1] + 0.5 * d[i][j-1]
              end
              doall j = 0, m        ! loop Weight
                w[i][j] = s[i][j+2] - 0.25 * d[i][j]
              end
            end
            """,
        ),
    ]
