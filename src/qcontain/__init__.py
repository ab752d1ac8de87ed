"""Malware containment as network influence minimisation.

Classical baseline (Independent Cascade + Monte Carlo + greedy edge removal)
and a simulated quantum pipeline (amplitude-estimation influence readout and
Grover minimum finding) with shared oracle-call accounting.
"""
