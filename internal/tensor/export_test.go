package tensor

// EachTileMode is eachTileMode for the external test package.
var EachTileMode = eachTileMode
