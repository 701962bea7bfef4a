// Package loft is a from-scratch Go reproduction of "LOFT: A High
// Performance Network-on-Chip Providing Quality-of-Service Support"
// (Ouyang & Xie, MICRO 2010): a cycle-accurate NoC simulator implementing
// locally-synchronized frames (LSF) integrated with flit-reservation flow
// control (FRS), the GSF baseline it is evaluated against, and an experiment
// runner regenerating every table and figure of the paper's evaluation.
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for paper-vs-measured results, and the examples/ directory
// for runnable entry points. cmd/loftexp regenerates every experiment and
// the ablation studies; bench/ is the repository benchmark.
package loft
