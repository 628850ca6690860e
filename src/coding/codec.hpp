// coding::CodecDecoder: the one RLNC decoder (chunked::Decoder), which
// takes a dense or chunked FileInfo alike.
#pragma once

#include "coding/chunked.hpp"
