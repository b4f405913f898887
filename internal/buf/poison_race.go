//go:build race

package buf

// poisonReleased turns on poison mode in race builds: Put fills released
// frame buffers with poisonByte and panics on a second release, and Get
// panics if a free buffer was written while it sat in the pool. The race
// job thereby runs every golden, the parallel-scheduler determinism suite
// and the byte-exact payload tests against recycled, poisoned buffers.
const poisonReleased = true
