package statestore

// TailBytes exports the active segment's flush threshold to the
// external tests.
const TailBytes = tailBytes
