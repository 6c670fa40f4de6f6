# Writes OUTPUT: a C++ translation unit defining models::embeddedDocuments(),
# every MODELS_DIR/*.xml file as a raw-string literal keyed by its file name.
#
#   cmake -DMODELS_DIR=<models dir> -DOUTPUT=<file.cpp> -P embed_models.cmake
#
# The literal is the file's bytes exactly, so a model embedded here
# fingerprints (models::modelSetIdentity) like the same file read from disk.
set(delimiter "starlink_model")

file(GLOB files RELATIVE "${MODELS_DIR}" "${MODELS_DIR}/*.xml")
list(SORT files)
if(NOT files)
  message(FATAL_ERROR "embed_models: no *.xml files in ${MODELS_DIR}")
endif()

set(out "// Generated from models/*.xml by src/core/bridge/embed_models.cmake; do not edit.\n")
string(APPEND out "#include \"core/bridge/models.hpp\"\n\n")
string(APPEND out "namespace starlink::bridge::models {\n\n")
string(APPEND out "const Documents& embeddedDocuments() {\n")
string(APPEND out "    static const Documents documents = {\n")
foreach(name IN LISTS files)
  file(READ "${MODELS_DIR}/${name}" content)
  string(FIND "${content}" ")${delimiter}\"" clash)
  if(NOT clash EQUAL -1)
    message(FATAL_ERROR
      "embed_models: ${MODELS_DIR}/${name} contains the raw-string delimiter )${delimiter}\"")
  endif()
  string(APPEND out "        {\"${name}\", R\"${delimiter}(${content})${delimiter}\"},\n")
endforeach()
string(APPEND out "    };\n")
string(APPEND out "    return documents;\n")
string(APPEND out "}\n\n")
string(APPEND out "}  // namespace starlink::bridge::models\n")

file(WRITE "${OUTPUT}" "${out}")
