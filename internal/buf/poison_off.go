//go:build !race

package buf

// poisonReleased is off outside race builds: released buffers keep their
// stale bytes, which every builder overwrites in full before reuse.
const poisonReleased = false
