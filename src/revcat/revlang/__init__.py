"""The reversible language: syntax, parser, validator, inverter, evaluator and denotation."""
