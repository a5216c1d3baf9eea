from revcat.revlang.parser import parse_program
from revcat.revlang.validate import validate_program

from bundled import BUNDLED, bundled_program


def issues_of(source):
    return [str(i) for i in validate_program(parse_program(source))]


def test_bundled_programs_are_valid():
    for name in BUNDLED:
        assert validate_program(bundled_program(name)) == []


def test_output_overlap_detected():
    issues = issues_of("fun f Z = Z\nfun f (S x) = let y = f x in Z")
    assert any("overlapping outputs" in i for i in issues)


def test_input_overlap_detected():
    issues = issues_of("fun f x = x\nfun f (S y) = y")
    assert any("overlapping inputs" in i for i in issues)


def test_linearity_violations_detected():
    issues = issues_of("fun f (x, y) = (x, x)")
    assert any("more than once" in i for i in issues)
    issues = issues_of("fun f (x, x) = (x, x)")
    assert any("binds a variable twice" in i for i in issues)
    issues = issues_of("fun f (x, y) = x")
    assert any("never used" in i for i in issues)


def test_use_before_bind_detected():
    issues = issues_of("fun g x = x\nfun f a = let b = g c in let c = g a in (b, c)")
    assert any("used before being bound" in i for i in issues)


def test_name_and_arity_resolution():
    assert any("unknown function" in i for i in issues_of("fun f x = let y = g x in y"))
    issues = issues_of("fun g<h> x = let y = h x in y\nfun f x = let y = g x in y")
    assert any("static argument" in i for i in issues)
    issues = issues_of("fun g x = x\nfun f<p> a = let b = p<g> a in b")
    assert any("cannot take static arguments" in i for i in issues)


def test_parameter_shadowing_rejected():
    issues = issues_of("fun g x = x\nfun f<g> a = let b = g a in b")
    assert any("shadows" in i for i in issues)


def test_undeclared_atom_rejected():
    issues = issues_of("fun f 'red = 'red")
    assert any("not declared" in i for i in issues)
    assert validate_program(parse_program("atom red\nfun f 'red = 'red")) == []
