package statestore

// TailBytes exports the active segment's flush threshold to the
// external tests.
const TailBytes = tailBytes

// Hand reports where the CLOCK hand stands: which attached table, which
// slot position in it, and how many tables are attached.
func (s *Store) Hand() (table, slot, tables int) {
	return s.handTable, s.handSlot, len(s.tables)
}
