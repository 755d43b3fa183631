"""Experiment harness: the specs and sweeps that regenerate every table
and figure of the paper's evaluation."""
