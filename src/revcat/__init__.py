"""revcat: executable order-enriched dagger categories and a reversible language.

Three concrete categories (finite relations, partial injections, and
subnormalized doubly stochastic maps) carry both a dagger and a pointed
order on every hom-set.  On top of them sit a Kleene fixed-point engine,
a DSL of continuous functionals with conjugation and fixed-point adjoint
checks, a feedback trace, and a small reversible functional language
whose syntactic inverter mirrors conjugation of functionals.

No package re-exports a name: each is imported from the module that
defines it, so importing a module loads only the layers it uses.
"""
