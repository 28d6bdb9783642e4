"""Exact K-group bookkeeping for lamplighter group C*-algebras.

Computes, in exact integer/rational arithmetic: canonical shift-orbit word
bases, the inductive-limit direct-sum certificate, kernel/cokernel
bookkeeping for the crossed product, trace images, and, for abelian base
groups, the full-shift coboundary splitting and the periodic-orbit
coboundary test.

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first use (PEP 562), so the CLI loads only
what its subcommand runs.
"""

__version__ = "0.1.0"

# Seed of pv-check's random chains and of the acceptance criteria's draws.
DEFAULT_SEED = 42

# K_1 boundary identity: the shift unitary's class goes to minus the unit's.
BOUNDARY_IDENTITY = "∂1[u] = -[1]"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "BudgetError": "errors",
    "CatalogError": "errors",
    "ClaimCertificate": "colimitk",
    "GroupDataError": "errors",
    "GroupRepData": "grouprep",
    "LampkError": "errors",
    "NonAbelianGroupError": "errors",
    "TruncationError": "errors",
    "Word": "shiftwords",
    "ZChain": "zchain",
    "alpha": "zchain",
    "beta_eval": "fullshift",
    "builtin": "grouprep",
    "canonicalize": "shiftwords",
    "claim_check": "colimitk",
    "coboundary_decompose": "fullshift",
    "coinvariant_class": "zchain",
    "csalgebras_isomorphic_abelian_case": "grouprep",
    "cylinder_to_chain": "fullshift",
    "decompose": "zchain",
    "enumerate_canonical": "shiftwords",
    "f_apply": "colimitk",
    "fingerprint": "grouprep",
    "is_invariant": "zchain",
    "livsic_check": "fullshift",
    "periodic_orbit_sum": "fullshift",
    "projection_chain": "zchain",
    "pv_check": "lamplighterk",
    "shift": "shiftwords",
    "trace_of_chain": "lamplighterk",
    "trace_of_word": "lamplighterk",
    "trace_image_level": "lamplighterk",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
