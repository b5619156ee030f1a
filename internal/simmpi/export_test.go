package simmpi

// SettledGoroutines is settledGoroutines for the external test package.
var SettledGoroutines = settledGoroutines
