"""Exact enumeration of inequivalent binary codes (equivalently, binary
matroids) and a verification suite for the bounds governing their
asymptotics.

`import codecensus` loads no submodule; a name loads its home module on
first use.  A module `__getattr__` (PEP 562) imports the home module of a
public name the first time the name is read and keeps the value here, so
`from codecensus import lattice_dim_poly` compiles `submodcount` and what it
imports, not `burnside`.  Any other name raises AttributeError, so `from
codecensus import burnside` still imports the submodule."""

# each public name and its home submodule
_HOMES = {name: home for home, names in (
    ("burnside", "CensusRow correction_report count_codes count_codes_by_dim"),
    ("cyclestruct", "CycleType class_size primary_components"),
    ("qarith", "gauss_binomial gauss_total lemma1_tail_product scaled_u"),
    ("submodcount", "lattice_dim_poly lattice_size"),
) for name in names.split()}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # imported here: without site (python -S) importlib is not yet loaded
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
