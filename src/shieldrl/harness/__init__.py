"""Experiment harness: configs, training/eval loops, CLI, acceptance suites."""
