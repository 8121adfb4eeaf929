"""conedrive: desk-scale end-to-end CNN driving controllers.

Steering classification and regression plus a brake/throttle DAG, built on a
small from-scratch layer set, with the supporting dataset pipeline,
shift-translation augmentation, evaluation, overlay rendering, and a
forward-latency harness.
"""

__version__ = "0.1.0"
