// Package arrangement holds the acceptance tests of the top-k level of the
// 2-D dual-line arrangement (the paper's Section 3 and Figure 3): its
// k-sets and its border, as internal/sweep's KSets and KBorder compute
// them, checked against the paper's Figure 1 example, against the
// one-pass Sweep, against direct top-k queries and against the dual-line
// geometry. The package has no code of its own: the arrangement is never
// built, and its k-level is read off the sweep's event loop.
package arrangement
