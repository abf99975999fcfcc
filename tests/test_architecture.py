"""Claims about the shape of the source tree, read with ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "capitula"


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text(), str(path))


def test_only_curves_names_the_cover_families():
    # fforacle/curves.py is the one module that tells Artin-Schreier from Kummer
    family = {"artin_schreier", "kummer"}
    naming = {name for name, tree in _trees() for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value in family}
    assert naming == {"fforacle/curves.py"}


def test_covers_are_built_by_their_constructors():
    # the record itself normalizes nothing, so a cover is built only by
    # Cover.artin_schreier and Cover.kummer (through cls) and by Cover.over,
    # whose defining data the constructors already normalized
    sites = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                builders = {"Cover", "cls"} if node.name == "Cover" else {"Cover"}
                scopes = [(f"{node.name}.{item.name}", item) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef) and node in tree.body:
                builders, scopes = {"Cover"}, [(node.name, node)]
            else:
                continue
            sites += [f"{name}:{scope_name}" for scope_name, scope in scopes
                      for called in _called_names(scope) if called in builders]
    total = sum(called == "Cover" for _, tree in _trees() for called in _called_names(tree))
    assert sorted(sites) == ["fforacle/curves.py:Cover.artin_schreier",
                             "fforacle/curves.py:Cover.kummer", "fforacle/curves.py:Cover.over"]
    assert total == 1


def test_only_curves_names_the_decomposition_kinds():
    # the local engines read (e, f, g) and the places they build, not the
    # kind that LocalData names
    naming = {name for name, tree in _trees() for node in ast.walk(tree)
              if isinstance(node, ast.Constant)
              and node.value in ("ramified", "inert", "split")}
    assert naming == {"fforacle/curves.py"}


def test_local_engine_keeps_no_separate_orbit():
    # the places above a base are numbered by orbit position, so sigma is
    # a shift along LocalEngine.places and no second list holds the orbit
    tree = ast.parse((PACKAGE / "fforacle" / "picard.py").read_text())
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "LocalEngine")
    assigned = {node.attr for node in ast.walk(engine) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)}
    assert "places" in assigned
    assert "orbit" not in assigned


def test_riemann_roch_basis_solves_one_system():
    # the window is read off the places above infinity, so the system is
    # built and solved once, with no widening loop around the solve
    tree = ast.parse((PACKAGE / "fforacle" / "picard.py").read_text())
    basis = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "riemann_roch_basis")
    solves = [name for name in _called_names(basis) if name == "_nullspace"]
    assert solves == ["_nullspace"]
    loops = [node for node in ast.walk(basis)
             if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                  ast.DictComp, ast.GeneratorExp))]
    assert not [name for loop in loops for name in _called_names(loop) if name == "_nullspace"]


def test_picard_does_not_import_rational_functions():
    # the Picard engine works in F_q[t] and F_q alone
    tree = ast.parse((PACKAGE / "fforacle" / "picard.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "RationalFunc" not in imported


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_local_integers_are_derived_on_the_profile():
    # d_v, D and n0 are cached on ExtensionProfile; compute_dv and
    # compute_D_n0 hand out copies to callers outside the package
    callers = {name for name, tree in _trees() for called in _called_names(tree)
               if called in ("compute_dv", "compute_D_n0")}
    assert callers <= {"profile.py"}


def test_verify_reads_the_calculators_through_analyze_profile():
    # the oracle's verdicts check the calculators that `capitula analyze`
    # runs, through one analyze_profile, not through bindings of its own
    formulas = ast.parse((PACKAGE / "formulas.py").read_text())
    defined = {node.name for node in formulas.body if isinstance(node, ast.FunctionDef)}
    analyze = next(node for node in formulas.body
                   if isinstance(node, ast.FunctionDef) and node.name == "analyze_profile")
    run = set(_called_names(analyze)) & defined
    assert {"hilbert94_lower_bound", "semisimple_report", "imaginary_report",
            "delta_index", "m_invariant", "prop86_check"} <= run
    verify = ast.parse((PACKAGE / "verify.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(verify)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "analyze_profile" in imported
    assert not imported & run
    assert not set(_called_names(verify)) & run


def test_each_cohomology_group_is_computed_in_one_place():
    # _cohomology is called only from GModule's cached properties, so no
    # entry point computes a group its module already holds
    def calls(node):
        return sum(name == "_cohomology" for name in _called_names(node))

    total = sum(calls(tree) for _, tree in _trees())
    tree = ast.parse((PACKAGE / "cohomology.py").read_text())
    gmodule = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "GModule")
    cached = [node for node in gmodule.body if isinstance(node, ast.FunctionDef)
              and [ast.unparse(d) for d in node.decorator_list] == ["cached_property"]]
    assert {node.name: calls(node) for node in cached} == {"h1": 1, "h2": 1}
    assert total == 2


def test_quotients_are_presented_where_coordinates_are_read():
    # SNF transforms are formed only for Pic^0, for C_{K,S} with its sigma
    # and for the inclusion of a kernel; every other quotient is only
    # counted (abelian.subgroup_order, staircase_quotient)
    def calls(node):
        return sum(name == "QuotientPresentation" for name in _called_names(node))

    sites = {}
    total = 0
    for name, tree in _trees():
        total += calls(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and calls(node):
                sites[f"{name}:{node.name}"] = calls(node)
    assert sites == {"fforacle/picard.py:_try_presentation": 1,
                     "fforacle/picard.py:s_class_group": 1, "abelian.py:kernel": 1}
    assert total == 3


def test_s_class_relations_have_one_builder():
    # a divisor's class in Pic = Pic^0 + Z p0 is read only to build C_{K,S}
    # and to read a divisor in it, so every S-class quantity reads the one
    # presentation that s_class_group builds
    tree = ast.parse((PACKAGE / "fforacle" / "picard.py").read_text())
    callers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef) and node in tree.body:
            scopes = [(node.name, node)]
        else:
            continue
        callers += [name for name, scope in scopes for called in _called_names(scope)
                    if called == "_pic_class"]
    assert sorted(callers) == ["SClassGroup.class_of", "s_class_group"]


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ files import in order to re-export; every other
    # module uses each name it imports, or lists it in __all__
    unused = []
    for name, tree in _trees():
        if name.endswith("__init__.py"):
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{name}:{n}" for n in sorted(imported - used)]
    assert unused == []
