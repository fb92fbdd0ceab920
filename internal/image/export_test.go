package image

// BufferedDigest exposes the buffered digest oracle to the external
// tests, which build the tool images through core.
var BufferedDigest = bufferedDigest
