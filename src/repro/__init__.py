"""Reproduction of SWIM: Selective Write-Verify for CiM Neural Accelerators.

Subpackages
-----------
``repro.nn``
    From-scratch NumPy deep-learning framework with gradient *and*
    diagonal-second-derivative backpropagation (the paper's Sec. 3.3).
``repro.data``
    Procedural synthetic datasets standing in for MNIST / CIFAR-10 /
    Tiny ImageNet (offline environment).
``repro.cim``
    Non-volatile CiM substrate: device variation model (Eqs. 14-16),
    bit-sliced weight mapping, iterative write-verify, the accelerator.
``repro.core``
    SWIM itself: sensitivity analysis, weight selection, Algorithm 1,
    and the Random / Magnitude / In-situ baselines.
``repro.plan``
    Selection planning: content-addressed artifact cache, batched plan
    engine, and parallel scenario orchestration.
``repro.experiments``
    Drivers that regenerate every table and figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
